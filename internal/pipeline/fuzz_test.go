package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// legacyJSONBundle is a cut-down retired v2 all-JSON bundle — what a
// deployment that never repacked still has on disk. Both readers must
// refuse it (and every truncation of it) with the pointer to
// hydra-link -save-bundle.
const legacyJSONBundle = `{"version":2,"pipeline":{"cfg":{"topics":4}},"views":{"twitter":[{"username":"alice_tw","embedding":[0.25,0.75]}]},"friends":{"twitter":[[]]},"friends_k":3}`

// fuzzSeeds loads the golden bundles plus truncations of each — the
// corners a torn download or a bad disk produces — and a v2 JSON
// document. The checked-in corpus under testdata/fuzz/ adds hand-made
// near-miss headers.
func fuzzSeeds(f *testing.F) {
	f.Helper()
	seeds := [][]byte{[]byte(legacyJSONBundle)}
	for _, name := range goldenBundles {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, data := range seeds {
		f.Add(data)
		f.Add(data[:len(data)/2])
		if len(data) > 64 {
			f.Add(data[:64])
		}
	}
	f.Add([]byte{})
}

// FuzzReadBundle hammers the streaming reader with arbitrary bytes: it
// must reject garbage with an error — never panic, never hang — and
// anything it accepts must re-serialize.
func FuzzReadBundle(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: the bundle must survive a round trip — a
		// parse that produces an unwritable bundle means the reader
		// validated less than the writer guarantees.
		var buf bytes.Buffer
		if err := WriteBundle(&buf, b); err != nil {
			t.Fatalf("accepted bundle does not re-serialize: %v", err)
		}
		// What every caller does next. A header the reader let through
		// may still carry a feature config no pipeline can run; the store
		// must refuse it with an error.
		_, _ = b.Store()
	})
}

// FuzzOpenBundleMapped drives the mapped reader's header and section
// bounds checks, its chunked skip-scan and its entry reads over arbitrary
// file contents: open must error or the bundle's views, friend slices and
// index rows must materialize (or refuse) and close cleanly.
func FuzzOpenBundleMapped(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.bundle")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mb, err := OpenBundleMapped(path, MapOptions{})
		if err != nil {
			return
		}
		// Materialize through the mapped accessors — the lazy decode
		// paths the skip-scan deferred — then unmap. Decode errors are
		// fine; only panics and out-of-bounds reads count.
		for _, p := range mb.Platforms() {
			n := mb.NumAccounts(p)
			for _, local := range []int{0, n - 1, n} {
				_, _ = mb.View(p, local)
				_, _ = mb.Friends(p, local)
				_, _ = mb.Username(p, local)
			}
		}
		if ixs, err := mb.LazyIndexes(); err == nil {
			for _, ix := range ixs {
				n := ix.NumShards()
				for _, a := range []int{0, n - 1, n} {
					_, _ = ix.Candidates(a)
				}
			}
		}
		if sd := mb.Shard(); sd != nil {
			_ = sd.Validate()
		}
		_ = mb.Stats()
		_, _ = mb.Store() // as in FuzzReadBundle: refuse, never panic
		mb.Close()
	})
}
