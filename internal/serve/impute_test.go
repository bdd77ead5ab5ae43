package serve

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"hydra/internal/core"
	"hydra/internal/platform"
)

// imputePair restores two engines from the same table-carrying bundle:
// one consulting the pack-time Eqn-18 table, one with the table
// switched off, walking friends live. Everything a client can see must
// be identical between them.
func imputePair(t *testing.T, workers int) (on, off *Engine) {
	t.Helper()
	e := getEnv(t)
	on, err := NewEngineFromBundle(e.bundle, workers)
	if err != nil {
		t.Fatal(err)
	}
	if on.Sys.ImputeTable() == nil {
		t.Fatal("fixture bundle carries no impute table — pack-time build is broken")
	}
	off, err = NewEngineFromBundle(e.bundle, workers)
	if err != nil {
		t.Fatal(err)
	}
	off.SetImputeTableEnabled(false)
	return on, off
}

// TestImputeTableServingBitExact is the acceptance gate for the
// pack-time table on the serving surfaces: byte-identical REPL output
// table-on vs table-off, and row-identical top-k over every A-side
// account at workers {1,4}. The table is a precomputation of the live
// path's exact float sequence, so any divergence is a bug, not a
// tradeoff.
func TestImputeTableServingBitExact(t *testing.T) {
	e := getEnv(t)
	na := len(e.bundle.Views[platform.Twitter])
	for _, workers := range []int{1, 4} {
		on, off := imputePair(t, workers)
		for a := 0; a < na; a++ {
			got, err := on.TopK(platform.Twitter, a, platform.Facebook, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := off.TopK(platform.Twitter, a, platform.Facebook, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d a=%d: %d rows vs %d", workers, a, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d a=%d row %d: table %+v vs live %+v", workers, a, i, got[i], want[i])
				}
			}
		}
		ih := on.ImputeHealth()
		if ih == nil || !ih.Enabled || ih.TableHits == 0 {
			t.Fatalf("workers=%d: table never consulted — the comparison is vacuous (health %+v)", workers, ih)
		}
		oh := off.ImputeHealth()
		if oh == nil || oh.Enabled {
			t.Fatalf("workers=%d: off-twin still reports the table enabled: %+v", workers, oh)
		}
	}

	// REPL byte-diff: the same command script through both engines.
	on, off := imputePair(t, 1)
	script := []string{"pairs"}
	for a := 0; a < 6; a++ {
		script = append(script,
			"topk twitter "+strconv.Itoa(a)+" facebook 5",
			"topk twitter "+strconv.Itoa(a)+" facebook 1",
			"score twitter "+strconv.Itoa(a)+" facebook "+strconv.Itoa(a),
			"link twitter "+strconv.Itoa(a)+" facebook "+strconv.Itoa(a),
			"batch twitter facebook "+strconv.Itoa(a)+":0 "+strconv.Itoa(a)+":1",
		)
	}
	input := strings.Join(script, "\n")
	var onOut, offOut bytes.Buffer
	if err := on.REPL(strings.NewReader(input), &onOut); err != nil {
		t.Fatal(err)
	}
	if err := off.REPL(strings.NewReader(input), &offOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onOut.Bytes(), offOut.Bytes()) {
		t.Fatalf("REPL output differs table-on vs table-off:\n--- table on ---\n%s\n--- table off ---\n%s", onOut.String(), offOut.String())
	}
}

// TestImputeHealthCounters pins the /healthz impute block's semantics:
// always present, pair-cache stats live from the first engine, table
// stats advancing only on the table-consulting twin.
func TestImputeHealthCounters(t *testing.T) {
	on, off := imputePair(t, 1)
	for _, eng := range []*Engine{on, off} {
		if ih := eng.ImputeHealth(); ih == nil {
			t.Fatal("ImputeHealth must never be nil — the pair cache exists on every engine")
		}
	}
	if _, err := on.TopK(platform.Twitter, 0, platform.Facebook, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := off.TopK(platform.Twitter, 0, platform.Facebook, 5); err != nil {
		t.Fatal(err)
	}
	ih := on.ImputeHealth()
	if ih.TableEntries == 0 {
		t.Fatalf("table-on engine reports no entries: %+v", ih)
	}
	if ih.TableHits+ih.TableMisses == 0 {
		t.Fatalf("table-on engine served a top-k without consulting the table: %+v", ih)
	}
	oh := off.ImputeHealth()
	if oh.TableHits != 0 && oh.Enabled {
		t.Fatalf("table-off engine consulted the table: %+v", oh)
	}
	if oh.PairCacheSize == 0 && oh.PairCacheHits+oh.PairCacheMisses == 0 {
		t.Fatalf("pair cache untouched after a top-k: %+v", oh)
	}
}

// TestImputeTableDetachReachesEveryPath pins the table's one owner:
// detaching it from the store takes it out of /healthz and out of the
// batch path together — a ScoreBatch over missing-dimension candidates
// returns the same bits through the live walk and never touches the
// detached table again.
func TestImputeTableDetachReachesEveryPath(t *testing.T) {
	e := getEnv(t)
	eng, err := NewEngineFromBundle(e.bundle, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := eng.Sys.(*core.LazyStore)
	tbl := store.ImputeTable()
	if tbl == nil {
		t.Fatal("fixture bundle carries no impute table")
	}
	ix := e.bundle.Indexes[0]
	var pairs [][2]int
	for _, row := range ix.ByA {
		for _, c := range row {
			pairs = append(pairs, [2]int{c.A, c.B})
		}
	}
	want, err := eng.ScoreBatch(ix.PA, ix.PB, pairs)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := tbl.Stats()
	if hits == 0 {
		t.Fatal("the attached table was never hit — no missing-dimension candidates to compare")
	}
	store.SetImputeTable(nil)
	if h := eng.ImputeHealth(); h.Enabled || h.TableEntries != 0 {
		t.Fatalf("/healthz still reports the detached table: %+v", h)
	}
	got, err := eng.ScoreBatch(ix.PA, ix.PB, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("pair %v: live score %x differs from the table-backed %x", pairs[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	if after, _ := tbl.Stats(); after != hits {
		t.Fatalf("the detached table was still consulted: hits %d -> %d", hits, after)
	}
}
