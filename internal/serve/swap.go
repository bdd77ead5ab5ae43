package serve

// Versioned hot bundle swap: a serving process keeps its current engine
// behind one atomic pointer. Installing a new bundle generation is an
// open (the header, the model sections and the account offset scan), an
// optional prewarm, then one pointer swap — queries
// that already loaded the old engine finish on it (the pointer load is
// their only synchronization point, and the old engine stays alive as
// long as any in-flight query holds it), queries arriving after the swap
// run on the new generation. No locks sit on the query path and nothing
// is ever dropped mid-flight.

import (
	"fmt"
	"sync/atomic"

	"hydra/internal/pipeline"
)

// Swappable holds the current engine of a serving process and swaps it
// atomically for a new bundle generation. It implements EngineSource — the
// front-end contract the HTTP handler and the in-process router backend
// load their engine through — so every query pins exactly one
// (engine, generation) pair for its whole lifetime and a response can
// never mix generations.
type Swappable struct {
	cur atomic.Pointer[Engine]
}

// EngineSource yields the engine a query should run on, together with its
// bundle generation. A bare *Engine is its own (permanent) EngineSource; a
// *Swappable yields whatever generation is currently installed.
type EngineSource interface {
	Current() (*Engine, uint64)
}

// Current returns the Engine itself: a plain engine is an EngineSource that
// never swaps.
func (e *Engine) Current() (*Engine, uint64) { return e, e.generation }

// NewSwappable starts a swappable holder on its first engine.
func NewSwappable(e *Engine) *Swappable {
	s := &Swappable{}
	s.cur.Store(e)
	return s
}

// Current returns the installed engine and its generation. The returned
// engine remains fully usable even if a swap lands immediately after —
// in-flight queries finish on the generation they loaded.
func (s *Swappable) Current() (*Engine, uint64) {
	e := s.cur.Load()
	return e, e.generation
}

// Swap installs a new engine, enforcing the versioned-swap contract:
//
//   - the new bundle must describe the same shard (same index, count,
//     hash seed and restricted platforms) — changing the split topology
//     re-homes accounts between machines and is a tier restart, not a
//     swap;
//   - its generation must be strictly newer, so a stale bundle (a re-read
//     of the current file, or an old file restored by mistake) is
//     refused instead of silently re-installed. Unstamped bundles
//     (generation 0 on both sides) swap unversioned — a single-box
//     deployment that never sharded still gets hot reload.
//
// On success the previous engine is returned (alive until its last
// in-flight query completes); on error the current engine keeps serving.
func (s *Swappable) Swap(next *Engine) (*Engine, error) {
	if next == nil {
		return nil, fmt.Errorf("serve: cannot swap in a nil engine")
	}
	for {
		old := s.cur.Load()
		oldDesc, newDesc := old.shard, next.shard
		if !newDesc.SameTopology(oldDesc) {
			return nil, fmt.Errorf("serve: refusing swap: new bundle's shard topology %s does not match the serving bundle's %s",
				describeShard(newDesc), describeShard(oldDesc))
		}
		if newDesc != nil && newDesc.Index != oldDesc.Index {
			return nil, fmt.Errorf("serve: refusing swap: new bundle is shard %d, this process serves shard %d", newDesc.Index, oldDesc.Index)
		}
		if (old.generation != 0 || next.generation != 0) && next.generation <= old.generation {
			return nil, fmt.Errorf("serve: refusing swap: bundle generation %d is not newer than the serving generation %d", next.generation, old.generation)
		}
		if s.cur.CompareAndSwap(old, next) {
			return old, nil
		}
		// Lost a race with a concurrent swap; re-validate against the winner.
	}
}

// describeShard renders a shard descriptor for swap-refusal errors.
func describeShard(d *pipeline.ShardDesc) string {
	if d == nil {
		return "unsharded"
	}
	return fmt.Sprintf("%d/%d (seed %d, b-side %v)", d.Index, d.Count, d.Seed, d.BSide)
}
