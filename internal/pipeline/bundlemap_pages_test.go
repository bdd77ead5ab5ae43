package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"hydra/internal/blocking"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
)

// viewBits, friendBits and rowBits encode what a view, friend slice or
// index row holds the way the bundle's sections do, so two of them
// compare bit for bit (reflect.DeepEqual would let -0 equal +0).
func viewBits(v *features.AccountView) []byte {
	p := features.SnapshotView(v)
	var s binSection
	s.putEvents(p.Events)
	s.putTimes(p.PostTimes)
	s.putVecs(p.TopicDists)
	s.putVecs(p.GenreDists)
	s.putVecs(p.SentDists)
	s.putVec(p.Embedding)
	return s.buf
}

func friendBits(fs []graph.Friend) []byte {
	var s binSection
	s.putFriends(fs)
	return s.buf
}

func rowBits(row []blocking.Candidate) []byte {
	var s binSection
	s.putShards([][]blocking.Candidate{row})
	return s.buf
}

// fatTileFile saves a TiledBundle of n accounts per platform whose views
// carry a 1 000-float embedding (≈ 8 KB a view, near the benchmark
// tile's 6.3 KB) and a distinct topic vector each, and returns its path
// with the decoded bundle to check views against.
func fatTileFile(tb testing.TB, n int) (string, *Bundle) {
	tb.Helper()
	base := fixtureBundle()
	emb := make(linalg.Vector, 1000)
	for i := range emb {
		emb[i] = float64(i)/1000 - 0.25
	}
	for _, vs := range base.Views {
		for i := range vs {
			vs[i].Embedding = emb
		}
	}
	tiled, err := TiledBundle(base, n, 8, 5)
	if err != nil {
		tb.Fatal(err)
	}
	for _, vs := range tiled.Views {
		for i := range vs {
			vs[i].TopicDists = []linalg.Vector{{float64(i), 0.5}}
		}
	}
	path := filepath.Join(tb.TempDir(), "tile.bin")
	if err := SaveBundle(path, tiled); err != nil {
		tb.Fatal(err)
	}
	decoded, err := LoadBundle(path)
	if err != nil {
		tb.Fatal(err)
	}
	return path, decoded
}

// TestTouchEveryEntryKeepsBytes opens a ≥ 16 MB tile and reads every
// view, friend slice and index row of it, each of which must equal the
// decoded bundle's bit for bit. Entries decode out of pooled scratch, so
// none may alias: the aliased-vector count must not move while they are
// read, or the next read would overwrite an entry already handed out.
func TestTouchEveryEntryKeepsBytes(t *testing.T) {
	path, want := fatTileFile(t, 1100)
	mb, err := OpenBundleMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	if size := mb.Stats().Bytes; size < 16<<20 {
		t.Fatalf("want a tile of ≥ 16 MB, got %d bytes", size)
	}
	aliasedAtOpen := mb.Stats().AliasedVecs
	for _, id := range mb.Platforms() {
		for local := range want.Views[id] {
			v, err := mb.View(id, local)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(viewBits(v), viewBits(features.RestoreView(want.Views[id][local], id, local))) {
				t.Fatalf("%s[%d]: view differs from the decoded bundle's", id, local)
			}
			fr, err := mb.Friends(id, local)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(friendBits(fr), friendBits(want.Friends[id][local])) {
				t.Fatalf("%s[%d]: friends differ from the decoded bundle's", id, local)
			}
		}
	}
	ixs, err := mb.LazyIndexes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ixs) == 0 {
		t.Fatal("tile has no index to touch")
	}
	for i, ix := range ixs {
		for a := 0; a < ix.NumShards(); a++ {
			row, err := ix.Candidates(a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rowBits(row), rowBits(want.Indexes[i].ByA[a])) {
				t.Fatalf("index %d row %d differs from the decoded bundle's", i, a)
			}
		}
	}
	if got := mb.Stats().AliasedVecs; got != aliasedAtOpen {
		t.Fatalf("entries aliased %d vectors", got-aliasedAtOpen)
	}
}

// TestMappedEntryReadsConcurrent reads views, friend slices and index
// rows from several goroutines, sharing the pooled read scratch, with the
// view cap lowered so far that most view touches evict and read again.
// Every value must equal Bundle.Store's bit for bit (run under -race by
// `make race`).
func TestMappedEntryReadsConcurrent(t *testing.T) {
	const (
		seed       = 3
		viewCap    = 8
		goroutines = 4
	)
	fitted := fitWorld(t, writeWorld(t, 24, seed), seed, 0)
	b, err := fitted.Bundle(0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bundle.bin")
	if err := SaveBundle(path, b); err != nil {
		t.Fatal(err)
	}
	decoded, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	wantStore, err := decoded.Store()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := OpenBundleMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	mb.viewCap = viewCap
	ixs, err := mb.LazyIndexes()
	if err != nil {
		t.Fatal(err)
	}

	// One check per view, friend slice and index row.
	var checks []func() error
	for _, id := range mb.Platforms() {
		for local := range decoded.Views[id] {
			wantView := viewBits(features.RestoreView(decoded.Views[id][local], id, local))
			wfr, err := wantStore.Friends(id, local, decoded.FriendsK)
			if err != nil {
				t.Fatal(err)
			}
			wantFriends := friendBits(wfr)
			checks = append(checks,
				func() error {
					v, err := mb.View(id, local)
					if err != nil {
						return err
					}
					if !bytes.Equal(viewBits(v), wantView) {
						return fmt.Errorf("%s[%d]: view differs from Bundle.Store's", id, local)
					}
					return nil
				},
				func() error {
					fr, err := mb.Friends(id, local)
					if err != nil {
						return err
					}
					if !bytes.Equal(friendBits(fr), wantFriends) {
						return fmt.Errorf("%s[%d]: friends differ from Bundle.Store's", id, local)
					}
					return nil
				})
		}
	}
	for i, ix := range ixs {
		for a, row := range decoded.Indexes[i].ByA {
			wantRow := rowBits(row)
			checks = append(checks, func() error {
				got, err := ix.Candidates(a)
				if err != nil {
					return err
				}
				if !bytes.Equal(rowBits(got), wantRow) {
					return fmt.Errorf("index %d row %d differs from the decoded bundle's", i, a)
				}
				return nil
			})
		}
	}

	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, i := range rand.New(rand.NewSource(int64(round*goroutines + g))).Perm(len(checks)) {
					if err := checks[i](); err != nil {
						errs <- err
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
	}
}

// BenchmarkMappedViewRedecode prices the re-decode an evicted view
// costs: one entry read into pooled scratch and its copy-decode.
func BenchmarkMappedViewRedecode(b *testing.B) {
	path, _ := fatTileFile(b, 1100)
	mb, err := OpenBundleMapped(path, MapOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer mb.Close()
	id := mb.Platforms()[0]
	local := mb.NumAccounts(id) / 2
	slot := &mb.views[id].slots[local]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if slot.v.Swap(nil) != nil {
			mb.resViews.Add(-1)
		}
		b.StartTimer()
		if _, err := mb.View(id, local); err != nil {
			b.Fatal(err)
		}
	}
}
