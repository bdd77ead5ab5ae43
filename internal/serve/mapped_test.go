package serve

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hydra/internal/pipeline"
	"hydra/internal/platform"
)

// mappedEngine opens the shared fixture bundle lazily and wraps it in an
// engine.
func mappedEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	e := getEnv(t)
	path := filepath.Join(t.TempDir(), "bundle.bin")
	if err := os.WriteFile(path, e.bundleBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	mb, err := pipeline.OpenBundleMapped(path, pipeline.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineFromMapped(mb, workers)
	if err != nil {
		mb.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := eng.Close(); err != nil {
			t.Errorf("closing mapped engine: %v", err)
		}
	})
	return eng
}

// TestMappedEngineServesIdenticalREPL byte-diffs the mapped engine's
// REPL output — the full human-facing surface, error lines included —
// against the heap-decoded engine.
func TestMappedEngineServesIdenticalREPL(t *testing.T) {
	e := getEnv(t)
	script := strings.Join([]string{
		"pairs",
		"score twitter 0 facebook 0",
		"link twitter 1 facebook 2",
		"topk twitter 0 facebook 5",
		"topk twitter 3 facebook",
		"topk twitter 2 facebook 0",
		"batch twitter facebook 0:0 0:1 1:2",
		"score twitter 9999 facebook 0",
		"score orkut 0 facebook 0",
		"topk twitter -1 facebook 5",
		"nonsense command",
		"quit",
	}, "\n")
	var want bytes.Buffer
	if err := e.beng.REPL(strings.NewReader(script), &want); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want.String(), `"`) {
		t.Fatal("oracle output carries no usernames — the diff below would be vacuous")
	}
	// One case, named for the lazily opened MappedBundle it checks.
	t.Run("mapped", func(t *testing.T) {
		eng := mappedEngine(t, 0)
		var got bytes.Buffer
		if err := eng.REPL(strings.NewReader(script), &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("REPL output differs:\n--- mapped ---\n%s--- heap ---\n%s", got.String(), want.String())
		}
	})
}

// TestMappedEngineTopKEveryAccountWorkers diffs the mapped engine's
// full ranked shard and truncated top-3 against the heap engine for
// every A-side account, at both worker-pool settings, plus a batch
// score over the whole candidate set.
func TestMappedEngineTopKEveryAccountWorkers(t *testing.T) {
	e := getEnv(t)
	b := e.task.Blocks[0]
	for _, workers := range []int{1, 4} {
		eng := mappedEngine(t, workers)
		na := eng.NumAccounts(b.PA)
		if na <= 0 {
			t.Fatalf("mapped engine reports %d %s accounts", na, b.PA)
		}
		for a := 0; a < na; a++ {
			want, err := e.beng.TopK(b.PA, a, b.PB, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.TopK(b.PA, a, b.PB, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d a=%d: mapped shard ranking differs", workers, a)
			}
			want3, err := e.beng.TopK(b.PA, a, b.PB, 3)
			if err != nil {
				t.Fatal(err)
			}
			got3, err := eng.TopK(b.PA, a, b.PB, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got3, want3) {
				t.Fatalf("workers=%d a=%d: mapped top-3 differs", workers, a)
			}
		}
		pairs := make([][2]int, len(b.Cands))
		for i, c := range b.Cands {
			pairs[i] = [2]int{c.A, c.B}
		}
		want, err := e.beng.ScoreBatch(b.PA, b.PB, pairs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.ScoreBatch(b.PA, b.PB, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: mapped batch scores differ", workers)
		}
	}
}

// TestMappedEngineConcurrentQueries hammers one mapped engine from many
// goroutines so the lazy section materialization races (first touch,
// cache publication, stats counters) run under -race, and every answer
// still matches the heap engine.
func TestMappedEngineConcurrentQueries(t *testing.T) {
	e := getEnv(t)
	b := e.task.Blocks[0]
	eng := mappedEngine(t, 0)
	na := eng.NumAccounts(b.PA)
	want := make([][]Scored, na)
	for a := 0; a < na; a++ {
		w, err := e.beng.TopK(b.PA, a, b.PB, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[a] = w
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for a := g % na; a < na; a += 2 {
				got, err := eng.TopK(b.PA, a, b.PB, 3)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[a]) {
					t.Errorf("concurrent a=%d: mapped top-3 differs", a)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := eng.MappedStats(); st == nil || st.ResidentViews == 0 {
		t.Fatalf("mapped stats missing after load: %+v", st)
	}
}

// TestMappedShortReadsAreErrors cuts a served bundle's file in place just
// past its model section — against the replace-by-rename rule — and
// requires every account read to fail with an error: a view, a friend
// slice, an index row and a top-k over them. An index row that cannot be
// read must never pass for an empty one. Then it closes an intact bundle
// and requires the same of it.
func TestMappedShortReadsAreErrors(t *testing.T) {
	e := getEnv(t)
	b := e.task.Blocks[0]
	raw := e.bundleBytes
	const magic = "HYB3"
	if string(raw[:len(magic)]) != magic {
		t.Fatalf("fixture bundle opens with %q, not the v3 magic", raw[:len(magic)])
	}
	cut := len(magic)
	for block := 0; block < 2; block++ { // header, model
		cut += 8 + int(binary.LittleEndian.Uint64(raw[cut:]))
	}

	path := filepath.Join(t.TempDir(), "bundle.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mb, err := pipeline.OpenBundleMapped(path, pipeline.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineFromMapped(mb, 0)
	if err != nil {
		mb.Close()
		t.Fatal(err)
	}
	defer eng.Close()
	if err := os.Truncate(path, int64(cut)); err != nil {
		t.Fatal(err)
	}
	accountReadsFail(t, "truncated", mb, b.PA)
	if _, err := eng.TopK(b.PA, 1, b.PB, 5); err == nil {
		t.Error("truncated: TopK answered off a file that no longer holds its accounts")
	}

	intact := filepath.Join(t.TempDir(), "intact.bin")
	if err := os.WriteFile(intact, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	closed, err := pipeline.OpenBundleMapped(intact, pipeline.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	accountReadsFail(t, "closed", closed, b.PA)
}

// accountReadsFail requires mb's first view and friend slice on p, and the
// first row of every index, to fail to read.
func accountReadsFail(t *testing.T, what string, mb *pipeline.MappedBundle, p platform.ID) {
	t.Helper()
	if v, err := mb.View(p, 0); err == nil {
		t.Errorf("%s: View returned %v, want an error", what, v)
	}
	if fr, err := mb.Friends(p, 0); err == nil {
		t.Errorf("%s: Friends returned %v, want an error", what, fr)
	}
	ixs, err := mb.LazyIndexes()
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range ixs {
		if row, err := ix.Candidates(0); err == nil {
			t.Errorf("%s: %s → %s Candidates returned %d candidates, want an error", what, ix.PA, ix.PB, len(row))
		}
	}
}
