package core

// The pack-time Eqn-18 imputation table. PR 7's two-tier top-k left
// Eqn-18 imputation as ~2/3 of a wide query's cost: every candidate with
// missing dimensions resolves two friend lists and up to topFriends²
// friend-pair raw vectors through the global pair cache before it can
// average them. But the whole computation is a pure function of the
// bundle's frozen state — views, friend slices, topFriends — so for the
// candidate pairs a bundle's index shards can ever present, the
// per-dimension friend-pair sums and the pair count can be accumulated
// once at pack time and shipped with the bundle. Serving-time imputation
// of a table hit collapses to copy-raw + fill-from-sums: no friend
// resolution, no friend-pair features, no cache traffic.
//
// Bit-exactness is by construction, not by tolerance: BuildImputeTable
// accumulates each entry's sums with friendPairSums, which adds the
// friend pairs in the order and with the addObserved step of the live
// plan (imputeBatch), and fillMissing fills x[d] = sums[d]/count from
// either source with the one expression, so a table-backed impute
// returns the exact bits the live path would.
// Entries are keyed at the packed topFriends K; a query at any other K,
// a pair outside the table, or a model without one falls back to the
// live path, mirroring how the prescreen section degrades to exact-only.

import (
	"fmt"
	"math"
	"sync/atomic"

	"hydra/internal/linalg"
	"hydra/internal/parallel"
	"hydra/internal/platform"
)

// ImputeTablePairParts holds one platform pair's table entries: parallel
// id arrays plus the per-entry friend-pair count and the row-major
// per-dimension sums. Count 0 marks a pair with missing dimensions but
// no social context on one side — the live path leaves those dimensions
// zero, and the table records that verdict so serving skips even the
// friend resolution.
type ImputeTablePairParts struct {
	PA platform.ID `json:"pa"`
	PB platform.ID `json:"pb"`
	// A[i], B[i] are entry i's local account ids on PA and PB.
	A []int32 `json:"a"`
	B []int32 `json:"b"`
	// Counts[i] is entry i's friend-pair count |F_a|·|F_b| (the Eqn-18
	// divisor); Sums[i*Dim : (i+1)*Dim] its per-dimension sums.
	Counts linalg.Vector `json:"counts"`
	Sums   linalg.Vector `json:"sums"`
}

// ImputeTableParts is the serializable pack-time Eqn-18 table: the
// precomputed friend-pair contribution of every index-shard candidate
// whose raw pair vector has missing dimensions, keyed at the packed
// topFriends depth K.
type ImputeTableParts struct {
	K     int                    `json:"k"`
	Dim   int                    `json:"dim"`
	Pairs []ImputeTablePairParts `json:"pairs"`
}

// NumEntries counts the table's entries across all platform pairs.
func (p *ImputeTableParts) NumEntries() int {
	n := 0
	for i := range p.Pairs {
		n += len(p.Pairs[i].A)
	}
	return n
}

// Validate checks the parts' internal consistency (shape, id range and
// count sanity) so a truncated or hand-edited table fails at load time
// instead of mis-filling a feature vector later.
func (p *ImputeTableParts) Validate() error {
	if p.K <= 0 || p.Dim <= 0 {
		return fmt.Errorf("core: impute table needs positive shape, got K=%d over dim %d", p.K, p.Dim)
	}
	for i := range p.Pairs {
		pp := &p.Pairs[i]
		n := len(pp.A)
		if len(pp.B) != n || len(pp.Counts) != n {
			return fmt.Errorf("core: impute table %s/%s has %d A ids, %d B ids, %d counts — want equal",
				pp.PA, pp.PB, n, len(pp.B), len(pp.Counts))
		}
		if len(pp.Sums) != n*p.Dim {
			return fmt.Errorf("core: impute table %s/%s has %d sum entries, want %d×%d",
				pp.PA, pp.PB, len(pp.Sums), n, p.Dim)
		}
		for j := 0; j < n; j++ {
			if pp.A[j] < 0 || pp.B[j] < 0 {
				return fmt.Errorf("core: impute table %s/%s entry %d has negative account ids (%d, %d)",
					pp.PA, pp.PB, j, pp.A[j], pp.B[j])
			}
			if c := pp.Counts[j]; math.IsNaN(c) || c < 0 || c != math.Trunc(c) {
				return fmt.Errorf("core: impute table %s/%s entry %d has count %g, want a non-negative integer",
					pp.PA, pp.PB, j, c)
			}
		}
	}
	return nil
}

// imputeTableKey addresses one table entry. Account ids are the bundle's
// local indexes, which the wire format already bounds to u32.
type imputeTableKey struct {
	pa, pb platform.ID
	a, b   int32
}

// ImputeTable is the runtime form of ImputeTableParts: a flat hash index
// over the entries, ready for lock-free concurrent lookups on the
// serving hot path. Hit/miss counters are atomic so /metrics can report
// imputation health without perturbing queries.
type ImputeTable struct {
	k, dim int
	idx    map[imputeTableKey]int32
	counts []float64
	sums   linalg.Vector // row-major entry×dim, concatenated across pairs

	hits, misses atomic.Uint64
}

// ImputeTableFromParts validates and indexes serialized table parts.
func ImputeTableFromParts(p *ImputeTableParts) (*ImputeTable, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.NumEntries()
	t := &ImputeTable{
		k:      p.K,
		dim:    p.Dim,
		idx:    make(map[imputeTableKey]int32, n),
		counts: make([]float64, 0, n),
		sums:   make(linalg.Vector, 0, n*p.Dim),
	}
	for i := range p.Pairs {
		pp := &p.Pairs[i]
		for j := range pp.A {
			key := imputeTableKey{pp.PA, pp.PB, pp.A[j], pp.B[j]}
			if _, dup := t.idx[key]; dup {
				return nil, fmt.Errorf("core: impute table has duplicate entry for %s/%d × %s/%d",
					pp.PA, pp.A[j], pp.PB, pp.B[j])
			}
			t.idx[key] = int32(len(t.counts))
			t.counts = append(t.counts, pp.Counts[j])
			t.sums = append(t.sums, pp.Sums[j*p.Dim:(j+1)*p.Dim]...)
		}
	}
	return t, nil
}

// NumEntries reports the indexed entry count.
func (t *ImputeTable) NumEntries() int { return len(t.counts) }

// Stats reports the lookup counters since the table was built.
func (t *ImputeTable) Stats() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}

// lookup resolves a pair's precomputed sums row and count. Only called
// for pairs that actually have missing dimensions (complete pairs never
// reach the table), so the miss counter measures exactly the queries
// that fell back to live friend resolution.
func (t *ImputeTable) lookup(pa platform.ID, a int, pb platform.ID, b int) (sums linalg.Vector, count float64, ok bool) {
	if a < 0 || a > math.MaxInt32 || b < 0 || b > math.MaxInt32 {
		t.misses.Add(1)
		return nil, 0, false
	}
	e, ok := t.idx[imputeTableKey{pa, pb, int32(a), int32(b)}]
	if !ok {
		t.misses.Add(1)
		return nil, 0, false
	}
	t.hits.Add(1)
	return t.sums[int(e)*t.dim : (int(e)+1)*t.dim], t.counts[e], true
}

// ImputeTableInput names one platform pair's candidate list for
// BuildImputeTable — typically a bundle index shard flattened to (a, b)
// rows.
type ImputeTableInput struct {
	PA, PB platform.ID
	Pairs  [][2]int
}

// BuildImputeTable precomputes the Eqn-18 friend-pair contribution of
// every input candidate whose raw pair vector has missing dimensions,
// at friend depth topFriends over dimensionality dim. Candidates whose
// raw vector is complete get no entry — the live path's mask scan
// already short-circuits them before any friend work. The accumulation
// runs friendPairSums, the exact float sequence of the live plan, so a
// table-backed impute is bit-identical by construction. The build
// parallelizes over candidates (workers ≤ 0 = all cores) with each
// entry written to its own slot, so the output is identical at any
// worker count.
func BuildImputeTable(st *LazyStore, topFriends, dim, workers int, inputs []ImputeTableInput) (*ImputeTableParts, error) {
	if topFriends <= 0 {
		topFriends = DefaultTopFriends
	}
	if dim <= 0 {
		return nil, fmt.Errorf("core: impute table build needs a positive dim, got %d", dim)
	}
	parts := &ImputeTableParts{K: topFriends, Dim: dim}
	for _, in := range inputs {
		pp := ImputeTablePairParts{
			PA: in.PA, PB: in.PB,
			A: []int32{}, B: []int32{},
			Counts: linalg.Vector{}, Sums: linalg.Vector{},
		}
		type slot struct {
			count float64
			sums  linalg.Vector // nil: complete pair, no entry
		}
		slots := make([]slot, len(in.Pairs))
		if err := parallel.ForErr(workers, len(in.Pairs), func(i int) error {
			a, b := in.Pairs[i][0], in.Pairs[i][1]
			if a < 0 || a > math.MaxInt32 || b < 0 || b > math.MaxInt32 {
				return fmt.Errorf("core: impute table candidate (%d, %d) outside the u32 id range", a, b)
			}
			pv, err := st.RawPair(in.PA, a, in.PB, b)
			if err != nil {
				return err
			}
			if len(pv.X) != dim {
				return fmt.Errorf("core: impute table candidate (%d, %d) spans dim %d, want %d", a, b, len(pv.X), dim)
			}
			if !hasMissing(pv.Mask) {
				return nil
			}
			// Count 0 (no friends on a side) is the live path's "no social
			// context" verdict, recorded with zero sums so serving skips
			// even the friend resolution.
			sums := make(linalg.Vector, dim)
			fa, fb, err := st.friendLists(in.PA, a, in.PB, b, topFriends)
			if err != nil {
				return err
			}
			count, err := st.friendPairSums(sums, fa, fb, in.PA, in.PB)
			if err != nil {
				return err
			}
			slots[i] = slot{count: count, sums: sums}
			return nil
		}); err != nil {
			return nil, err
		}
		for i, s := range slots {
			if s.sums == nil {
				continue
			}
			pp.A = append(pp.A, int32(in.Pairs[i][0]))
			pp.B = append(pp.B, int32(in.Pairs[i][1]))
			pp.Counts = append(pp.Counts, s.count)
			pp.Sums = append(pp.Sums, s.sums...)
		}
		parts.Pairs = append(parts.Pairs, pp)
	}
	return parts, nil
}

// RestrictImputeTable returns a copy of the parts with only the entries
// keep admits — the sharded-split path, which must drop entries for
// B-side accounts a sub-bundle does not own exactly as the index shards
// drop their candidate rows.
func RestrictImputeTable(p *ImputeTableParts, keep func(pb platform.ID, b int) bool) *ImputeTableParts {
	out := &ImputeTableParts{K: p.K, Dim: p.Dim}
	for i := range p.Pairs {
		pp := &p.Pairs[i]
		kept := ImputeTablePairParts{
			PA: pp.PA, PB: pp.PB,
			A: []int32{}, B: []int32{},
			Counts: linalg.Vector{}, Sums: linalg.Vector{},
		}
		for j := range pp.A {
			if !keep(pp.PB, int(pp.B[j])) {
				continue
			}
			kept.A = append(kept.A, pp.A[j])
			kept.B = append(kept.B, pp.B[j])
			kept.Counts = append(kept.Counts, pp.Counts[j])
			kept.Sums = append(kept.Sums, pp.Sums[j*p.Dim:(j+1)*p.Dim]...)
		}
		out.Pairs = append(out.Pairs, kept)
	}
	return out
}
