package blocking

import (
	"fmt"

	"hydra/internal/parallel"
	"hydra/internal/platform"
	"hydra/internal/vision"
)

// Index is a per-A-side sharded candidate index: for every account on the
// A platform it stores the candidate B-side accounts the rules admit —
// exactly the row Generate would keep for that account. A serving front-end
// answers top-k queries by scoring only an account's shard instead of
// scanning the full B side; the shard sizes are bounded by TopK plus the
// MinScore/pre-match tail, so a query is O(shard) model evaluations.
//
// An Index is immutable after BuildIndex and safe for concurrent readers.
//
// An index comes in two backings: eager (byA holds every shard, the
// BuildIndex / IndexFromParts form) and lazy (rows are read on demand
// from a bundle file — see LazyIndex). Both answer Candidates
// identically; only where the rows live differs.
type Index struct {
	// PA and PB identify the platform pair (queries run A → B).
	PA, PB platform.ID
	// Rules are the filter parameters the index was built with.
	Rules Rules

	byA [][]Candidate

	// Lazy backing: rowLens holds every shard's length (sizing and
	// fan-out stats without materialization), fetch materializes one
	// shard. fetch must be safe for concurrent callers and return stable
	// results, or an error when the shard cannot be read; nil fetch means
	// the index is eager.
	rowLens []int
	fetch   func(a int) ([]Candidate, error)
}

// LazyIndex builds an index whose rows materialize on first touch:
// rowLens pins every shard's candidate count up front, fetch resolves a
// shard when a query actually lands on it, and its error is Candidates'.
// Validation mirrors IndexFromParts.
func LazyIndex(pa, pb platform.ID, rules Rules, rowLens []int, fetch func(a int) ([]Candidate, error)) (*Index, error) {
	if pa == "" || pb == "" {
		return nil, fmt.Errorf("blocking: index parts missing platform pair (%q, %q)", pa, pb)
	}
	if len(rowLens) == 0 {
		return nil, fmt.Errorf("blocking: index parts for %s → %s have no shards", pa, pb)
	}
	if fetch == nil {
		return nil, fmt.Errorf("blocking: lazy index for %s → %s needs a fetch function", pa, pb)
	}
	return &Index{PA: pa, PB: pb, Rules: rules, rowLens: rowLens, fetch: fetch}, nil
}

// BuildIndex scans the O(N_A · N_B) pair space once and shards the kept
// candidates by A-side account. The scan parallelizes over A rows on the
// Rules.Workers pool; each shard is written to its own slot, so the index
// contents are identical at any worker count. Generate is this scan's
// shards, flattened.
func BuildIndex(pa, pb *platform.Platform, faces *vision.Matcher, rules Rules) (*Index, error) {
	if pa.NumAccounts() == 0 || pb.NumAccounts() == 0 {
		return nil, fmt.Errorf("blocking: empty platform (%s: %d, %s: %d accounts)",
			pa.ID, pa.NumAccounts(), pb.ID, pb.NumAccounts())
	}
	if rules.TopK <= 0 {
		rules.TopK = 3
	}
	ix := &Index{PA: pa.ID, PB: pb.ID, Rules: rules, byA: make([][]Candidate, pa.NumAccounts())}
	// Chunked so the N_B-entry scoring scratch is allocated once per
	// chunk, not once per row; each row's shard still lands in its own
	// slot, so the index is identical at any worker count.
	parallel.MapChunks(rules.Workers, pa.NumAccounts(), func(lo, hi int) []struct{} {
		scored := make([]Candidate, 0, pb.NumAccounts())
		for ai := lo; ai < hi; ai++ {
			ix.byA[ai] = appendRowCandidates(nil, pa, pb, faces, rules, ai, scored)
		}
		return nil
	})
	return ix, nil
}

// Candidates returns A-side account a's shard: its admitted B-side
// candidates in rank order (best cheap score first, pre-match stragglers
// last). The slice is shared read-only state — callers must not modify it.
func (ix *Index) Candidates(a int) ([]Candidate, error) {
	if a < 0 || a >= ix.NumShards() {
		return nil, fmt.Errorf("blocking: account %d out of range (%s has %d accounts)", a, ix.PA, ix.NumShards())
	}
	if ix.fetch != nil {
		return ix.fetch(a)
	}
	return ix.byA[a], nil
}

// NumShards returns the A-side account count (one shard per account).
func (ix *Index) NumShards() int {
	if ix.fetch != nil {
		return len(ix.rowLens)
	}
	return len(ix.byA)
}

// ShardSizes returns every shard's candidate count, indexed by A-side
// account. On a lazy index this reads the length table — no shard
// materializes. The returned slice is freshly allocated.
func (ix *Index) ShardSizes() []int {
	if ix.fetch != nil {
		return append([]int(nil), ix.rowLens...)
	}
	sizes := make([]int, len(ix.byA))
	for i, s := range ix.byA {
		sizes[i] = len(s)
	}
	return sizes
}
