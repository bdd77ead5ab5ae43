// Package parallel provides the shared worker-pool primitives behind
// HYDRA's hot paths: kernel Gram and cross-Gram construction, blocking
// candidate scoring, per-candidate feature assembly, the blocked dense
// linear algebra of internal/linalg (Mul/LU), the prescreen build, grid
// search and the experiment sweeps. All helpers take an explicit worker
// count (0 or negative resolves to runtime.GOMAXPROCS(0)) and guarantee
// deterministic, index-ordered results: every output slot is addressed by
// its input index, so the answer is bit-for-bit identical whether one
// worker or many ran the loop.
// Callers keep any RNG state per task (seeded from the task index), never
// shared across goroutines.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count: values ≤ 0 select
// runtime.GOMAXPROCS(0) (which respects both the machine size and the
// -cpu test flag); positive values are used as given.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Inner picks the worker pin for hot paths nested inside a parallel sweep
// of `points` tasks: once the sweep's own fan-out covers the pool the
// inner paths run on one worker (nested pools only multiply goroutines
// and concurrently resident intermediates), while a smaller fan-out gets
// the pool divided between its points — either way the effective
// parallelism never exceeds the configured budget. Every pool-driven path
// is deterministic, so the split never changes results.
func Inner(points, workers int) int {
	pool := Workers(workers)
	if points >= pool {
		return 1
	}
	if points > 1 {
		return pool / points
	}
	return workers
}

// For runs fn(i) for every i in [0, n) using the given number of workers
// (resolved via Workers). Iterations are handed out dynamically from a
// shared atomic counter, so uneven per-index costs (e.g. triangular kernel
// rows) balance automatically. With workers == 1 — or when n is tiny —
// the loop runs inline on the calling goroutine, exactly like the
// sequential code it replaces.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForErr is For with error propagation and fast failure: once a task
// fails, tasks with HIGHER indices are skipped. Tasks at or below the
// lowest failed index always run, so the reported error is exactly the
// one a sequential early-returning loop would hit — deterministic at any
// worker count. (Skipping by a plain "failed" flag would not give this:
// a goroutine could observe the flag after claiming a lower index and
// skip the error that should win.)
func ForErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var firstErr atomic.Int64
	firstErr.Store(int64(n))
	errs := make([]error, n)
	For(workers, n, func(i int) {
		if int64(i) > firstErr.Load() {
			return
		}
		if err := fn(i); err != nil {
			errs[i] = err
			for {
				cur := firstErr.Load()
				if int64(i) >= cur || firstErr.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) and collects the results indexed by
// i — deterministic regardless of scheduling.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	For(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// MapErr is Map with lowest-index-first error propagation (see ForErr).
// On error the partial results are still returned for inspection.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := ForErr(workers, n, func(i int) error {
		v, err := fn(i)
		out[i] = v
		return err
	})
	return out, err
}

// MapChunks splits [0, n) into contiguous chunks (one per worker, balanced
// to within one element), runs fn(lo, hi) on each, and concatenates the
// chunk results in chunk order. The concatenation therefore equals what a
// single sequential fn(0, n) pass would append — use it when per-index
// work emits a variable number of results (e.g. blocking candidates per
// account row).
func MapChunks[T any](workers, n int, fn func(lo, hi int) []T) []T {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		return fn(0, n)
	}
	parts := make([][]T, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		// Chunk g covers [g*n/w, (g+1)*n/w): contiguous and balanced.
		lo, hi := g*n/w, (g+1)*n/w
		go func(g, lo, hi int) {
			defer wg.Done()
			parts[g] = fn(lo, hi)
		}(g, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
