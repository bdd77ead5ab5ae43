package pipeline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// goldenBundles lists the checked-in v3 goldens: plain, sharded, and
// with each optional trailing section.
var goldenBundles = []string{
	"bundle_v3.golden.bin",
	"bundle_v3_shard0.golden.bin",
	"bundle_v3_prescreen.golden.bin",
	"bundle_v3_imputetable.golden.bin",
}

// fullFixtureBundle is the golden fixture plus both optional sections,
// so mapped-open exercises every section kind.
func fullFixtureBundle() *Bundle {
	b := fixtureBundle()
	b.Prescreen = fixturePrescreen()
	b.ImputeTable = fixtureImputeTable()
	return b
}

func writeBundleFile(t *testing.T, b *Bundle) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bundle.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestOpenBundleMappedMatchesDecode diffs every accessor of the lazily
// opened bundle, aliased vectors included, against the reference decoder
// (refdecode_test.go). ReadBundle's copy-decode of the same parser is
// held to the reference by TestBundleReadersAgree.
func TestOpenBundleMappedMatchesDecode(t *testing.T) {
	b := fullFixtureBundle()
	path, raw := writeBundleFile(t, b)
	want, err := readBundleV3(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	wantStore, err := want.Store()
	if err != nil {
		t.Fatal(err)
	}

	// One case, named for the lazily opened MappedBundle it checks.
	t.Run("mapped", func(t *testing.T) {
		mb, err := OpenBundleMapped(path, MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer mb.Close()
		if got := mb.NumAccounts("orkut"); got != -1 {
			t.Fatalf("NumAccounts(absent) = %d, want -1", got)
		}
		if !reflect.DeepEqual(mb.ModelParts(), want.Model) {
			t.Fatal("ModelParts differs from the decoded bundle")
		}
		if !reflect.DeepEqual(mb.Prescreen(), want.Prescreen) {
			t.Fatal("Prescreen differs from the decoded bundle")
		}
		if !reflect.DeepEqual(mb.Pairs(), want.Pairs) {
			t.Fatal("Pairs differs from the decoded bundle")
		}
		for _, id := range mb.Platforms() {
			parts := want.Views[id]
			if got := mb.NumAccounts(id); got != len(parts) {
				t.Fatalf("%s: NumAccounts = %d, want %d", id, got, len(parts))
			}
			for local := range parts {
				got, err := mb.View(id, local)
				if err != nil {
					t.Fatal(err)
				}
				if wv := features.RestoreView(parts[local], id, local); !reflect.DeepEqual(got, wv) {
					t.Fatalf("%s[%d]: mapped view differs:\n%+v\nvs\n%+v", id, local, got, wv)
				}
				fr, err := mb.Friends(id, local)
				if err != nil {
					t.Fatal(err)
				}
				wfr, err := wantStore.Friends(id, local, want.FriendsK)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fr, wfr) {
					t.Fatalf("%s[%d]: mapped friends %v, want %v", id, local, fr, wfr)
				}
				name, ok := mb.Username(id, local)
				if !ok || name != want.Views[id][local].Username {
					t.Fatalf("%s[%d]: Username = %q,%v want %q", id, local, name, ok, want.Views[id][local].Username)
				}
			}
		}

		// Index rows, via the lazy indexes.
		ixs, err := mb.LazyIndexes()
		if err != nil {
			t.Fatal(err)
		}
		if len(ixs) != len(want.Indexes) {
			t.Fatalf("%d lazy indexes, want %d", len(ixs), len(want.Indexes))
		}
		for i, ix := range ixs {
			for a, wrow := range want.Indexes[i].ByA {
				got, err := ix.Candidates(a)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, wrow) {
					t.Fatalf("index %d row %d: %v, want %v", i, a, got, wrow)
				}
			}
		}

		st := mb.Stats()
		if st.ResidentViews == 0 || st.ResidentRows == 0 {
			t.Fatalf("touched sections not counted resident: %+v", st)
		}
	})
}

// TestReadBundleSharesNoMemory holds ReadBundle to its promise that the
// bundle it returns shares no memory with its input: the sections it
// decodes at open are read into fresh buffers, and vectors alias those,
// never data. So overwriting data must leave the bundle's encoding as it
// was. The open is run once by hand first, to show that the fixture does
// alias a vector, or the check would be vacuous; its world fingerprint is
// one byte longer than the golden's, which shifts model and prescreen
// payloads so that one lands on an 8-byte boundary in the file.
func TestReadBundleSharesNoMemory(t *testing.T) {
	b := fullFixtureBundle()
	b.WorldFingerprint += "0"
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	orig := bytes.Clone(data)

	mb := &MappedBundle{f: bytes.NewReader(data), size: len(data)}
	if err := mb.open(); err != nil {
		t.Fatal(err)
	}
	if n := mb.aliased.Load(); hostLittleEndian && n == 0 {
		t.Fatal("no vector aliased a section buffer: the check below would be vacuous")
	}

	read, err := ReadBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xff
	}
	var got bytes.Buffer
	if err := WriteBundle(&got, read); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), orig) {
		t.Fatal("overwriting ReadBundle's input changed the bundle it returned")
	}
}

// TestImputeTableLongerThanChunk opens a bundle whose impute table holds
// one Sums vector eight scan chunks long. The table is read through the
// chunk, so the vector is copied a window at a time: both readers must
// decode it as the reference does, and the open must allocate the table
// about once — not a second time for a buffer holding the whole section.
// The allocation is measured against the same bundle with a one-float
// table, so the rest of the open cancels out.
func TestImputeTableLongerThanChunk(t *testing.T) {
	const dim = scanChunk // floats, so 8 bytes each: eight chunks
	withTable := func(dim int) (string, []byte) {
		b := fixtureBundle()
		sums := make(linalg.Vector, dim)
		for i := range sums {
			sums[i] = float64(i) - 0.5
		}
		b.ImputeTable = &core.ImputeTableParts{K: 3, Dim: dim, Pairs: []core.ImputeTablePairParts{{
			PA: platform.Twitter, PB: platform.Facebook,
			A: []int32{0}, B: []int32{0}, Counts: linalg.Vector{1}, Sums: sums,
		}}}
		return writeBundleFile(t, b)
	}
	path, raw := withTable(dim)
	smallPath, _ := withTable(1)

	want, err := readBundleV3(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ReadBundle decodes the long table differently from the reference")
	}
	mb, err := OpenBundleMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mb.Close()
	if !reflect.DeepEqual(mb.tableParts, want.ImputeTable) {
		t.Fatal("OpenBundleMapped decodes the long table differently from the reference")
	}

	openAlloc := func(path string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mb, err := OpenBundleMapped(path, MapOptions{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		mb.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	extra := float64(openAlloc(path)) - float64(openAlloc(smallPath))
	if section := float64(8 * dim); extra >= 1.2*section {
		t.Fatalf("opening the long table allocates %.2f MB more than a one-float table, %.2f× its %.2f MB of sums",
			extra/1e6, extra/section, section/1e6)
	}
}

// TestMappedViewEvictionConcurrent holds the bounded view cache to its
// two promises with the cap lowered to a few views, so almost every
// touch of a trained bundle evicts or re-decodes: residency never passes
// the cap once the goroutines that crossed it have swept, and eviction
// never changes a bit — every view equals the decoded bundle's, and
// scores and top-k rankings for every A account equal Bundle.Store's
// (run under -race by `make race`).
func TestMappedViewEvictionConcurrent(t *testing.T) {
	const (
		seed       = 3
		viewCap    = 6
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
	mb, err := OpenBundleMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	mb.viewCap = viewCap

	type account struct {
		id    platform.ID
		local int
	}
	var all []account
	for _, id := range mb.Platforms() {
		for local := range decoded.Views[id] {
			all = append(all, account{id, local})
		}
	}
	if len(all) < 4*viewCap {
		t.Fatalf("%d views barely exceed the cap of %d — the test would evict nothing", len(all), viewCap)
	}
	// inParallel runs fn on every goroutine, each with its own seeded
	// permutation of n items, and reports the first failure.
	inParallel := func(n int, fn func(i int) error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, i := range rand.New(rand.NewSource(int64(g))).Perm(n) {
					if err := fn(i); err != nil {
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
		if n := mb.Stats().ResidentViews; n > viewCap {
			t.Fatalf("%d views resident after every sweep finished, cap %d", n, viewCap)
		}
	}

	// Every view, from every goroutine: each touch returns the decoded
	// bundle's view, and at any instant at most one first touch per
	// goroutine can be in flight past the cap.
	for round := 0; round < 2; round++ {
		inParallel(len(all), func(i int) error {
			acc := all[i]
			got, err := mb.View(acc.id, acc.local)
			if err != nil {
				return err
			}
			if want := features.RestoreView(decoded.Views[acc.id][acc.local], acc.id, acc.local); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("%s[%d]: view differs from the decoded bundle's", acc.id, acc.local)
			}
			if n := mb.Stats().ResidentViews; n > viewCap+goroutines {
				return fmt.Errorf("%d views resident, cap %d with %d goroutines", n, viewCap, goroutines)
			}
			return nil
		})
	}
	resident := 0
	for i := range mb.viewSlots {
		if mb.viewSlots[i].v.Load() != nil {
			resident++
		}
	}
	if st := mb.Stats(); resident != st.ResidentViews {
		t.Fatalf("%d slots hold a view, the counter says %d", resident, st.ResidentViews)
	}

	// Scores and rankings over every index row. The impute tables are off
	// on both sides, so every missing dimension walks the friends' views.
	scorer := func(st *core.LazyStore, parts core.ModelParts) *core.Model {
		t.Helper()
		st.SetImputeTableEnabled(false)
		m, err := core.ModelFromParts(st, parts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mappedStore, err := mb.Store()
	if err != nil {
		t.Fatal(err)
	}
	wantStore, err := decoded.Store()
	if err != nil {
		t.Fatal(err)
	}
	mapped, want := scorer(mappedStore, mb.ModelParts()), scorer(wantStore, decoded.Model)
	ranked := func(m *core.Model, ix blocking.IndexParts, a int) ([]string, error) {
		row := ix.ByA[a]
		pairs := make([][2]int, len(row))
		for j, c := range row {
			pairs[j] = [2]int{c.A, c.B}
		}
		scores := make([]float64, len(row))
		if err := m.ScoreBatchInto(ix.PA, ix.PB, pairs, 1, scores); err != nil {
			return nil, err
		}
		order := make([]int, len(row))
		for j := range order {
			order[j] = j
		}
		sort.SliceStable(order, func(x, y int) bool {
			sx, sy := scores[order[x]], scores[order[y]]
			return sx > sy || (sx == sy && row[order[x]].B < row[order[y]].B)
		})
		out := make([]string, 0, len(row)+1)
		for _, j := range order {
			out = append(out, fmt.Sprintf("%d:%x", row[j].B, math.Float64bits(scores[j])))
		}
		if len(row) > 0 {
			s, err := m.Score(ix.PA, a, ix.PB, row[0].B)
			if err != nil {
				return nil, err
			}
			out = append(out, fmt.Sprintf("score:%x", math.Float64bits(s)))
		}
		return out, nil
	}
	for _, ix := range decoded.Indexes {
		inParallel(len(ix.ByA), func(a int) error {
			got, err := ranked(mapped, ix, a)
			if err != nil {
				return err
			}
			wantRank, err := ranked(want, ix, a)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, wantRank) {
				return fmt.Errorf("%s/%d -> %s: mapped answers %v, decoded bundle %v", ix.PA, a, ix.PB, got, wantRank)
			}
			return nil
		})
	}
}

// TestOpenBundleMappedTruncationGates opens every proper prefix of a
// valid bundle file: each must fail with an error, never panic and
// never succeed.
func TestOpenBundleMappedTruncationGates(t *testing.T) {
	_, raw := writeBundleFile(t, fullFixtureBundle())
	dir := t.TempDir()
	path := filepath.Join(dir, "cut.bin")
	step := 1
	if len(raw) > 2048 {
		// Cut byte-by-byte through the magic, lengths and header, then
		// sparsely through the bulk payloads.
		step = 7
	}
	for cut := 0; cut < len(raw); cut += step {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		mb, err := OpenBundleMapped(path, MapOptions{})
		if err == nil {
			mb.Close()
			t.Fatalf("truncation at byte %d of %d opened successfully", cut, len(raw))
		}
	}
	// Corrupt section length: claims more than the format allows.
	bad := append([]byte(nil), raw...)
	copy(bad[len(bundleMagic):], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if mb, err := OpenBundleMapped(path, MapOptions{}); err == nil {
		mb.Close()
		t.Fatal("oversized header length opened successfully")
	}
	// Trailing garbage after the last section.
	long := append(append([]byte(nil), raw...), 0xAA)
	if err := os.WriteFile(path, long, 0o644); err != nil {
		t.Fatal(err)
	}
	if mb, err := OpenBundleMapped(path, MapOptions{}); err == nil {
		mb.Close()
		t.Fatal("trailing bytes opened successfully")
	}
}

// TestBundleReadersAgree feeds the reference decoder (refdecode_test.go),
// ReadBundle and OpenBundleMapped the same files — each golden intact and
// mutated, plus a v2 JSON bundle and a v1 model artifact — and asserts
// all three return the same verdict, and for every refused JSON or
// Fourier-block input one message. ReadBundle and OpenBundleMapped share
// one parser, and so does the benchmark's oracle, a LoadBundle engine;
// the reference is the independent second parse, and what counts as a
// valid file, and what an accepted file decodes to, is pinned against it
// here.
func TestBundleReadersAgree(t *testing.T) {
	type input struct {
		name   string
		data   []byte
		accept bool
	}
	inputs := []input{
		{"v2-json", []byte(legacyJSONBundle), false},
		{"v1-artifact", []byte(`{"version":1,"model":{}}`), false},
	}
	for _, name := range goldenBundles {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		// Walk the length-prefixed blocks: bounds[i] is where block i's
		// length prefix starts, the last entry is the end of the file.
		bounds := []int{len(bundleMagic)}
		for off := len(bundleMagic); off < len(raw); {
			off += 8 + int(binary.LittleEndian.Uint64(raw[off:]))
			bounds = append(bounds, off)
		}
		if last := bounds[len(bounds)-1]; last != len(raw) || len(bounds) < 6 {
			t.Fatalf("%s: walked %d blocks to byte %d of %d", name, len(bounds)-1, last, len(raw))
		}
		inputs = append(inputs,
			input{name + "/intact", raw, true},
			input{name + "/trailing-8", append(append([]byte(nil), raw...), make([]byte, 8)...), false},
		)
		if rff := bytes.Replace(raw, []byte(`"rff":0`), []byte(`"rff":2`), 1); !bytes.Equal(rff, raw) {
			// A header announcing the retired Fourier block.
			inputs = append(inputs, input{name + "/rff-2", rff, false})
		}
		for i, b := range bounds[:len(bounds)-1] {
			inputs = append(inputs,
				input{fmt.Sprintf("%s/cut-before-block-%d", name, i), raw[:b], false},
				input{fmt.Sprintf("%s/cut-inside-length-%d", name, i), raw[:b+4], false},
			)
			// Block i claims one byte more than it has: every later block
			// shifts, and the last one runs off the end of the file.
			over := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint64(over[b:], binary.LittleEndian.Uint64(raw[b:])+1)
			inputs = append(inputs, input{fmt.Sprintf("%s/overclaim-block-%d", name, i), over, false})
		}
	}
	path := filepath.Join(t.TempDir(), "in.bin")
	for _, in := range inputs {
		ref, refErr := readBundleV3(bytes.NewReader(in.data))
		// ReadBundle gets its own copy, overwritten once it returns: the
		// bundle must not share a byte with its input.
		own := append([]byte(nil), in.data...)
		got, readErr := ReadBundle(own)
		if readErr == nil && !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: ReadBundle decodes differently from the reference", in.name)
		}
		for i := range own {
			own[i] = 0xAA
		}
		if readErr == nil && !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: ReadBundle's bundle changed when its input was overwritten", in.name)
		}
		if err := os.WriteFile(path, in.data, 0o644); err != nil {
			t.Fatal(err)
		}
		mb, mappedErr := OpenBundleMapped(path, MapOptions{})
		if mappedErr == nil {
			mb.Close()
		}
		errs := []error{refErr, readErr, mappedErr}
		for _, err := range errs {
			if (err == nil) != in.accept {
				t.Errorf("%s: want accept=%v, reference err=%v, ReadBundle err=%v, OpenBundleMapped err=%v",
					in.name, in.accept, refErr, readErr, mappedErr)
				break
			}
		}
		if in.name == "v2-json" || in.name == "v1-artifact" || strings.HasSuffix(in.name, "/rff-2") {
			for _, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "hydra-link -save-bundle") {
					t.Errorf("%s: refusal does not point at hydra-link -save-bundle: %v", in.name, err)
				} else if refErr != nil && err.Error() != refErr.Error() {
					t.Errorf("%s: readers refuse with different messages: %v vs %v", in.name, err, refErr)
				}
			}
		}
	}
}

// TestSaveBundleReplacesByRename is the repack-then-SIGHUP drill at the
// file level: a bundle saved over a path that a server still has open
// must not change a byte under the old open file — the old generation
// keeps reading its own bits, a fresh open reads the new ones.
func TestSaveBundleReplacesByRename(t *testing.T) {
	oldB, newB := fullFixtureBundle(), fullFixtureBundle()
	oldEmb := oldB.Views[platform.Twitter][0].Embedding
	newEmb := linalg.Vector{0.5, 0.125} // same length: the file size does not change
	newB.Views[platform.Twitter][0].Embedding = newEmb
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.bin")
	if err := SaveBundle(path, oldB); err != nil {
		t.Fatal(err)
	}
	served, err := OpenBundleMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	if err := SaveBundle(path, newB); err != nil {
		t.Fatal(err)
	}
	// First touch happens after the overwrite, so the view decodes from
	// whatever the open file holds now.
	v, err := served.View(platform.Twitter, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Embedding, oldEmb) {
		t.Fatalf("old open file reads embedding %v after the overwrite, want its own %v", v.Embedding, oldEmb)
	}
	fresh, err := OpenBundleMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if v, err = fresh.View(platform.Twitter, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Embedding, newEmb) {
		t.Fatalf("fresh open reads embedding %v, want the new %v", v.Embedding, newEmb)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("SaveBundle left temp files behind: %v", left)
	}
	// A failed save must leave neither a temp file nor a damaged target.
	newB.Version = BundleVersion + 1
	if err := SaveBundle(path, newB); err == nil {
		t.Fatal("SaveBundle accepted an unwritable bundle")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("failed SaveBundle left temp files behind: %v", left)
	}
	if _, err := LoadBundle(path); err != nil {
		t.Fatalf("failed SaveBundle damaged the target: %v", err)
	}
}

// TestAliasFloat64sAlignmentGate pins the zero-copy reinterpretation's
// refusal rules: misaligned payloads and empty vectors must fall back
// to copy-decoding (checkptr faults on a misaligned unsafe.Slice, so a
// wrong answer here is a crash under -race, not a wrong float).
func TestAliasFloat64sAlignmentGate(t *testing.T) {
	buf := make([]byte, 64)
	// Find an 8-aligned base inside the buffer.
	al := 0
	for ; alignOf(buf[al:]) != 0; al++ {
	}
	if !hostLittleEndian {
		if _, ok := aliasFloat64s(buf[al:al+16], 2); ok {
			t.Fatal("aliased on a big-endian host")
		}
		t.Skip("big-endian host: aliasing is always refused")
	}
	if v, ok := aliasFloat64s(buf[al:al+16], 2); !ok || len(v) != 2 {
		t.Fatalf("aligned alias refused: ok=%v len=%d", ok, len(v))
	}
	if _, ok := aliasFloat64s(buf[al+1:al+17], 2); ok {
		t.Fatal("aliased a misaligned payload")
	}
	if _, ok := aliasFloat64s(buf[al:al], 0); ok {
		t.Fatal("aliased an empty vector")
	}
}

func alignOf(p []byte) uintptr {
	if len(p) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&p[0])) % 8
}
