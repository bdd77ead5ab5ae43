package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// legacyJSONBundle is a cut-down retired v2 all-JSON bundle — what a
// deployment that never repacked still has on disk. Every reader must
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

// FuzzReadersAgree runs the reference decoder (refdecode_test.go) and
// ReadBundle over arbitrary bytes. They must give one verdict — garbage
// refused with an error, never a panic or a hang — and decode an
// accepted input to equal bundles. An accepted bundle must survive a
// WriteBundle → ReadBundle round trip, and its Store must refuse or
// succeed, never panic.
//
// Bundles are compared by what WriteBundle makes of them: the writer is
// deterministic (sorted platform ids, presence bytes that keep nil and
// empty apart, floats as raw bits), so equal bytes are equal bundles,
// with a NaN the fuzzer writes into a vector equal to itself.
func FuzzReadersAgree(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := readBundleV3(bytes.NewReader(data))
		b, err := ReadBundle(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("verdicts differ: reference err=%v, ReadBundle err=%v", refErr, err)
		}
		if err != nil {
			return
		}
		// An accepted bundle that does not write, or does not read back as
		// itself, means the reader validated less than the writer
		// guarantees.
		var buf, refBuf bytes.Buffer
		if err := WriteBundle(&buf, b); err != nil {
			t.Fatalf("accepted bundle does not re-serialize: %v", err)
		}
		if err := WriteBundle(&refBuf, ref); err != nil {
			t.Fatalf("reference bundle does not re-serialize: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), refBuf.Bytes()) {
			t.Fatal("ReadBundle decodes differently from the reference")
		}
		back, err := ReadBundle(buf.Bytes())
		if err != nil {
			t.Fatalf("re-serialized bundle is refused: %v", err)
		}
		var backBuf bytes.Buffer
		if err := WriteBundle(&backBuf, back); err != nil {
			t.Fatalf("round-tripped bundle does not re-serialize: %v", err)
		}
		if !bytes.Equal(backBuf.Bytes(), buf.Bytes()) {
			t.Fatal("bundle changes in a WriteBundle → ReadBundle round trip")
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
		// Materialize through the lazy accessors — the decode paths the
		// skip-scan deferred — then close. Decode errors are
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
		_, _ = mb.Store() // as in FuzzReadersAgree: refuse, never panic
		mb.Close()
	})
}
