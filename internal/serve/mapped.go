package serve

// Mapped serving: NewEngineFromMapped serves off a pipeline.MappedBundle
// — a cold start of the header, the model sections and offset scans,
// resident memory tracking the working set — plus the
// Acquire/Release/Retire lifecycle that keeps the bundle file open until
// the last in-flight request drains.

import (
	"time"

	"hydra/internal/blocking"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
)

// NewEngineFromMapped restores a serving engine over a lazily opened
// bundle: the lazy store answers feature queries account-at-a-time and
// the candidate indexes materialize rows on first touch, so startup cost
// is the bundle's open (header, model sections, offset scans), not the
// account payload. The engine owns the bundle — Retire (after a swap) or
// Close closes it; until then mb must not be closed by the caller.
func NewEngineFromMapped(mb *pipeline.MappedBundle, workers int) (*Engine, error) {
	store, err := mb.Store()
	if err != nil {
		return nil, err
	}
	ixs, err := mb.LazyIndexes()
	if err != nil {
		return nil, err
	}
	e, err := newEngine(store, mb.ModelParts(), mb.Prescreen(), mb.Shard(), mb.Pairs(), ixs, workers)
	if err != nil {
		return nil, err
	}
	e.closer, e.mapped = mb.Close, mb
	return e, nil
}

// Acquire pins the engine for one request. It returns false when the
// engine has been retired — the caller must re-resolve the current
// engine (a swap just happened) instead of serving off a bundle file
// that is about to close. In-memory engines never retire, so
// Acquire always succeeds on them.
func (e *Engine) Acquire() bool {
	e.inflight.Add(1)
	if e.retired.Load() {
		e.Release()
		return false
	}
	return true
}

// Release unpins the engine after Acquire.
func (e *Engine) Release() { e.inflight.Add(-1) }

// Retire marks a swapped-out engine as draining and releases its backing
// resources (the bundle file) once the last pinned request finishes.
// Asynchronous and idempotent; a no-op for engines that own no resources,
// which therefore stay acquirable forever. The ordering argument: Retire
// stores retired before polling inflight, Acquire increments inflight
// before loading retired (both sequentially consistent), so a request the
// drain loop misses is one that saw retired=true and bailed.
func (e *Engine) Retire() {
	if e.closer == nil {
		return
	}
	if e.retired.Swap(true) {
		return
	}
	go func() {
		for e.inflight.Load() != 0 {
			time.Sleep(time.Millisecond)
		}
		e.closeOnce.Do(func() { e.closeErr = e.closer() })
	}()
}

// Close is the synchronous Retire: it waits for in-flight requests to
// drain, then closes the bundle file. For shutdown paths and tests; a
// serving handler must never call it.
func (e *Engine) Close() error {
	if e.closer == nil {
		return nil
	}
	e.retired.Store(true)
	for e.inflight.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
	e.closeOnce.Do(func() { e.closeErr = e.closer() })
	return e.closeErr
}

// MappedStats snapshots the mapped bundle's residency and decode
// counters, nil for an in-memory engine.
func (e *Engine) MappedStats() *pipeline.MappedStats {
	if e.mapped == nil {
		return nil
	}
	s := e.mapped.Stats()
	return &s
}

// NumAccounts reports how many accounts platform id carries, -1 when
// the platform is absent — answered from the store's counts, without
// materializing any view.
func (e *Engine) NumAccounts(id platform.ID) int { return e.Sys.NumAccounts(id) }

// Fanout reports each indexed pair's candidate-set size distribution.
// Free on both backings: lazy indexes answer from their length tables.
func (e *Engine) Fanout() map[[2]platform.ID]blocking.Fanout {
	out := make(map[[2]platform.ID]blocking.Fanout, len(e.indexes))
	for pp, ix := range e.indexes {
		out[pp] = ix.Fanout()
	}
	return out
}
