package serve

import (
	"sort"
	"testing"
)

// TestServeTopKSelectionMatchesSort locks the bounded partial selection
// to an independent reference: score the account's whole candidate shard
// pair by pair, full-sort by the exact (score desc, B asc) comparator,
// truncate — for k ∈ {1, 5, len(shard)} plus the k ≤ 0 whole-shard form,
// at one and four workers.
func TestServeTopKSelectionMatchesSort(t *testing.T) {
	e := getEnv(t)
	blk := e.task.Blocks[0]
	for _, workers := range []int{1, 4} {
		eng, err := NewEngineFromBundle(e.bundle, workers)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for a := 0; a < 12; a++ {
			// Independent shard reconstruction: the union of index shards
			// equals the generated candidate set, and row a's shard holds
			// exactly its candidates.
			var ref []Scored
			for _, c := range blk.Cands {
				if c.A != a {
					continue
				}
				s, err := eng.Score(blk.PA, a, blk.PB, c.B)
				if err != nil {
					t.Fatal(err)
				}
				ref = append(ref, Scored{B: c.B, Score: s, Linked: s > 0})
			}
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].Score != ref[j].Score {
					return ref[i].Score > ref[j].Score
				}
				return ref[i].B < ref[j].B
			})
			for _, k := range []int{1, 5, len(ref), 0} {
				want := ref
				if k > 0 && k < len(ref) {
					want = ref[:k]
				}
				got, err := eng.TopK(blk.PA, a, blk.PB, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d a=%d k=%d: %d rows, want %d", workers, a, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d a=%d k=%d row %d: %+v, want %+v", workers, a, k, i, got[i], want[i])
					}
				}
				checked += len(want)
			}
		}
		if checked == 0 {
			t.Fatal("no shards checked")
		}
	}
}

// TestSteadyStateAllocs guards the zero-alloc property of the warm
// serving fast path on the deployed (bundle-backed, single-worker)
// configuration: Score and the recycled-buffer TopKAppend must not
// allocate at all, and the allocating TopK wrapper only for its result
// slice. Run outside the race filter on purpose — the race runtime's own
// bookkeeping would show up in the counts.
func TestSteadyStateAllocs(t *testing.T) {
	e := getEnv(t)
	eng, err := NewEngineFromBundle(e.bundle, 1)
	if err != nil {
		t.Fatal(err)
	}
	blk := e.task.Blocks[0]
	pairs := make([][2]int, len(blk.Cands))
	for i, c := range blk.Cands {
		pairs[i] = [2]int{c.A, c.B}
	}
	// Warm: fill the pair cache (candidate and friend pairs) and grow
	// every pooled buffer to its steady-state size.
	if _, err := eng.ScoreBatch(blk.PA, blk.PB, pairs); err != nil {
		t.Fatal(err)
	}
	var dst []Scored
	if dst, err = eng.TopKAppend(dst[:0], blk.PA, pairs[0][0], blk.PB, 5); err != nil {
		t.Fatal(err)
	}

	p := pairs[0]
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := eng.Score(blk.PA, p[0], blk.PB, p[1]); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Fatalf("warm Engine.Score allocates %.2f times/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		var err error
		if dst, err = eng.TopKAppend(dst[:0], blk.PA, p[0], blk.PB, 5); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Fatalf("warm Engine.TopKAppend allocates %.2f times/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := eng.TopK(blk.PA, p[0], blk.PB, 5); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("warm Engine.TopK allocates %.2f times/op, want ≤ 1 (its result slice)", avg)
	}
	scores := make([]float64, len(pairs))
	if avg := testing.AllocsPerRun(50, func() {
		if err := eng.Model.ScoreBatchInto(blk.PA, blk.PB, pairs, 1, scores); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Fatalf("warm ScoreBatchInto allocates %.2f times/op, want 0", avg)
	}
}
