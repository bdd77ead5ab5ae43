package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

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

// touchEveryView decodes every view of mb in file order, requires each
// to equal want's bit for bit, and calls probe (when set) after every
// 64 views.
func touchEveryView(t *testing.T, mb *MappedBundle, want *Bundle, probe func()) {
	t.Helper()
	n := 0
	for _, id := range mb.Platforms() {
		for local := range want.Views[id] {
			v, err := mb.View(id, local)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(viewBits(v), viewBits(features.RestoreView(want.Views[id][local], id, local))) {
				t.Fatalf("%s[%d]: mapped view differs from the decoded bundle's", id, local)
			}
			if n++; probe != nil && n%64 == 0 {
				probe()
			}
		}
	}
}

// mappingRss reads the Rss: line of data's mapping from
// /proc/self/smaps, in bytes.
func mappingRss(t *testing.T, data []byte) int {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	start := uint64(uintptr(unsafe.Pointer(&data[0])))
	inside := false
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if !strings.HasSuffix(f[0], ":") { // a mapping's header: lo-hi perms ...
			lo, _, _ := strings.Cut(f[0], "-")
			addr, err := strconv.ParseUint(lo, 16, 64)
			inside = err == nil && addr == start
			continue
		}
		if inside && f[0] == "Rss:" && len(f) >= 2 {
			kb, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatalf("no smaps entry starts at %#x", start)
	return 0
}

// TestMappedViewsHandFilePagesBack touches every view of a ≥ 16 MB tile
// and holds the mapping's own resident set under half the file the
// whole way: views copy-decode, and the lazy sections' pages go back
// every sweep batch of first touches, so residency follows the batch,
// not the file.
func TestMappedViewsHandFilePagesBack(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("only linux hands mapped pages back")
	}
	path, want := fatTileFile(t, 1100)
	mb, err := OpenBundleMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	if !mb.Mapped() || len(mb.data) < 16<<20 {
		t.Fatalf("want a mapped tile of ≥ 16 MB, got mapped=%v, %d bytes", mb.Mapped(), len(mb.data))
	}
	aliasedAtOpen := mb.Stats().AliasedVecs
	peak := mappingRss(t, mb.data)
	touchEveryView(t, mb, want, func() { peak = max(peak, mappingRss(t, mb.data)) })
	t.Logf("mapping's peak Rss %d KB of a %d KB file", peak>>10, len(mb.data)>>10)
	if half := len(mb.data) / 2; peak >= half {
		t.Fatalf("mapping resident %d bytes while touching every view of a %d-byte file, want < %d", peak, len(mb.data), half)
	}
	if got := mb.Stats().AliasedVecs; got != aliasedAtOpen {
		t.Fatalf("views aliased %d vectors of the mapping", got-aliasedAtOpen)
	}
}

// TestHeapFallbackTouchKeepsBytes runs the same touch over the heap
// copy: pages are never handed back there (MADV_DONTNEED would zero-fill
// anonymous memory), so every view still decodes to the file's bits.
func TestHeapFallbackTouchKeepsBytes(t *testing.T) {
	path, want := fatTileFile(t, 1100)
	mb, err := OpenBundleMapped(path, MapOptions{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	if mb.Mapped() {
		t.Fatal("NoMmap bundle reports a mapping")
	}
	touchEveryView(t, mb, want, nil)
	if n := mb.viewDecodes.Load(); n < 2*mb.sweepBatch() {
		t.Fatalf("%d first touches never reached a drop point (every %d)", n, mb.sweepBatch())
	}
}

// TestMappedPageDropConcurrent decodes views, friend slices and index
// rows from several goroutines with the view cap lowered so far that
// every first-touch view decode hands the lazy sections' pages back
// while other goroutines read them. Every value must equal
// Bundle.Store's bit for bit (run under -race by `make race`).
func TestMappedPageDropConcurrent(t *testing.T) {
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
	if mb.lazyHi-mb.lazyLo < 4*pageSize {
		t.Fatalf("lazy interior spans %d bytes — nothing worth dropping", mb.lazyHi-mb.lazyLo)
	}
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
	if n, views := mb.viewDecodes.Load(), int64(mb.totalViews); n < views {
		t.Fatalf("%d first-touch decodes over %d views — the cap evicted nothing, so nothing was dropped mid-read", n, views)
	}
}

// BenchmarkMappedViewRedecode prices the re-fault a page drop costs: it
// decodes one view again and again, from a mapping whose pages were just
// handed back and from one whose pages stayed resident.
func BenchmarkMappedViewRedecode(b *testing.B) {
	path, _ := fatTileFile(b, 1100)
	for _, tc := range []struct {
		name string
		drop bool
	}{{"dropped", true}, {"resident", false}} {
		b.Run(tc.name, func(b *testing.B) {
			mb, err := OpenBundleMapped(path, MapOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer mb.Close()
			mb.viewCap = 1 << 30 // no sweeps, no paced drops: only this loop's
			id := mb.Platforms()[0]
			local := mb.NumAccounts(id) / 2 // well inside the lazy interior
			slot := &mb.views[id].slots[local]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if slot.v.Swap(nil) != nil {
					mb.resViews.Add(-1)
				}
				if tc.drop {
					mb.dropLazy(len(mb.data))
				}
				b.StartTimer()
				if _, err := mb.View(id, local); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
