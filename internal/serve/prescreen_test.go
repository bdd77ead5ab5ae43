package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

// The prescreen oracles. The two-tier top-k path promises *bit-identical*
// output to the exact engine — not approximately equal, identical — so
// every test here diffs the prescreen engine against an exact-only twin:
// row-by-row over the full k/worker grid, and byte-by-byte over the REPL
// and HTTP front-ends. The candidate indexes are widened to the full
// cross product first: the blocking rules leave shards of ~3 candidates
// where a k=5 query has nothing to prune, and an unengaged prescreen
// would make every assertion vacuous (TestPrescreenBitExact checks it
// actually engaged).

// wideBundle returns a copy of the bundle whose indexes hold the full
// A×B cross product — production-shaped shards for the pruning path.
func wideBundle(b *pipeline.Bundle) *pipeline.Bundle {
	c := *b
	c.Indexes = make([]blocking.IndexParts, len(b.Indexes))
	for i, ix := range b.Indexes {
		na := len(b.Views[ix.PA])
		nb := len(b.Views[ix.PB])
		byA := make([][]blocking.Candidate, na)
		for a := 0; a < na; a++ {
			shard := make([]blocking.Candidate, nb)
			for bb := 0; bb < nb; bb++ {
				shard[bb] = blocking.Candidate{A: a, B: bb}
			}
			byA[a] = shard
		}
		c.Indexes[i] = blocking.IndexParts{PA: ix.PA, PB: ix.PB, Rules: ix.Rules, ByA: byA}
	}
	return &c
}

// widePair returns two engines over the wide index at the given worker
// count: one with the bundle's prescreen active, one forced exact-only.
func widePair(t testing.TB, b *pipeline.Bundle, workers int) (pre, exact *Engine) {
	t.Helper()
	if b.Prescreen == nil {
		t.Fatal("bundle carries no prescreen — packBundle should have built one for an RBF model")
	}
	wb := wideBundle(b)
	pre, err := NewEngineFromBundle(wb, workers)
	if err != nil {
		t.Fatal(err)
	}
	exact, err = NewEngineFromBundle(wb, workers)
	if err != nil {
		t.Fatal(err)
	}
	exact.SetPrescreenEnabled(false)
	return pre, exact
}

// TestPrescreenBitExact diffs the two-tier engine against the exact-only
// twin over every A-side account and a k/worker grid, then byte-diffs
// the REPL and HTTP front-ends — the serving surfaces a user can see.
func TestPrescreenBitExact(t *testing.T) {
	e := getEnv(t)
	for _, workers := range []int{1, 4} {
		pre, exact := widePair(t, e.bundle, workers)
		na := len(e.bundle.Views[platform.Twitter])
		for _, k := range []int{1, 5} {
			for a := 0; a < na; a++ {
				got, err := pre.TopK(platform.Twitter, a, platform.Facebook, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := exact.TopK(platform.Twitter, a, platform.Facebook, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d k=%d a=%d: %d rows vs %d", workers, k, a, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d k=%d a=%d row %d: %+v vs %+v", workers, k, a, i, got[i], want[i])
					}
				}
			}
		}
		ph := pre.PrescreenHealth()
		if ph == nil || ph.Queries == 0 {
			t.Fatalf("workers=%d: prescreen never engaged — the oracle is vacuous (health %+v)", workers, ph)
		}
		if ph.Pruned == 0 {
			t.Fatalf("workers=%d: prescreen engaged but pruned nothing (ε too loose?): %+v", workers, ph)
		}
		if eh := exact.PrescreenHealth(); eh == nil || eh.Enabled || eh.Queries != 0 {
			t.Fatalf("workers=%d: exact-only twin ran the prescreen: %+v", workers, eh)
		}
	}

	// REPL byte-diff: the same command script through both engines.
	pre, exact := widePair(t, e.bundle, 1)
	script := []string{"pairs"}
	for a := 0; a < 6; a++ {
		script = append(script,
			"topk twitter "+strconv.Itoa(a)+" facebook 5",
			"topk twitter "+strconv.Itoa(a)+" facebook 1",
			"score twitter "+strconv.Itoa(a)+" facebook "+strconv.Itoa(a),
			"batch twitter facebook "+strconv.Itoa(a)+":0 "+strconv.Itoa(a)+":1",
		)
	}
	input := strings.Join(script, "\n")
	var preOut, exactOut bytes.Buffer
	if err := pre.REPL(strings.NewReader(input), &preOut); err != nil {
		t.Fatal(err)
	}
	if err := exact.REPL(strings.NewReader(input), &exactOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preOut.Bytes(), exactOut.Bytes()) {
		t.Fatalf("REPL output differs between prescreen and exact engines:\n--- prescreen ---\n%s\n--- exact ---\n%s", preOut.String(), exactOut.String())
	}

	// HTTP byte-diff over the query endpoints (healthz is exempt — it
	// intentionally reports prescreen telemetry).
	preSrv := httptest.NewServer(pre.Handler())
	defer preSrv.Close()
	exactSrv := httptest.NewServer(exact.Handler())
	defer exactSrv.Close()
	for a := 0; a < 6; a++ {
		path := "/topk?pa=twitter&a=" + strconv.Itoa(a) + "&pb=facebook&k=5"
		if pb, eb := httpGet(t, preSrv.URL+path), httpGet(t, exactSrv.URL+path); !bytes.Equal(pb, eb) {
			t.Fatalf("HTTP %s differs:\n%s\nvs\n%s", path, pb, eb)
		}
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestPrescreenNeverPrunesTopK is the property oracle: over randomized
// worlds, every k in {1, 5, shard, 0} and workers in {1, 4}, the
// two-tier ranking equals the exact one row for row — the prescreen
// never pruned anything the exact scorer would have placed in the top
// k. It also pins the survivor counters to be worker-independent (the
// rescore chunking is fixed, not worker-derived). Runs under make race.
func TestPrescreenNeverPrunesTopK(t *testing.T) {
	for _, seed := range []int64{11, 29} {
		bundle := propertyBundle(t, seed)
		na := len(bundle.Views[platform.Twitter])
		nb := len(bundle.Views[platform.Facebook])
		var survivors [2]uint64
		for wi, workers := range []int{1, 4} {
			pre, exact := widePair(t, bundle, workers)
			for _, k := range []int{1, 5, nb, 0} {
				for a := 0; a < na; a++ {
					got, err := pre.TopK(platform.Twitter, a, platform.Facebook, k)
					if err != nil {
						t.Fatal(err)
					}
					want, err := exact.TopK(platform.Twitter, a, platform.Facebook, k)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("seed=%d workers=%d k=%d a=%d: %d rows vs %d", seed, workers, k, a, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed=%d workers=%d k=%d a=%d row %d: %+v vs %+v",
								seed, workers, k, a, i, got[i], want[i])
						}
					}
				}
			}
			ph := pre.PrescreenHealth()
			if ph == nil || ph.Queries == 0 {
				t.Fatalf("seed=%d workers=%d: prescreen never engaged", seed, workers)
			}
			survivors[wi] = ph.Survivors
		}
		if survivors[0] != survivors[1] {
			t.Fatalf("seed=%d: survivor count depends on workers: %d vs %d", seed, survivors[0], survivors[1])
		}
	}
}

// propertyBundle trains a small world end to end and returns its packed
// bundle — one randomized instance of the property test's universe.
func propertyBundle(t *testing.T, seed int64) *pipeline.Bundle {
	t.Helper()
	w, err := synth.Generate(synth.DefaultConfig(24, platform.EnglishPlatforms, seed))
	if err != nil {
		t.Fatal(err)
	}
	fcfg := features.DefaultConfig(seed)
	fcfg.LDAIterations = 15
	fcfg.MaxLDADocs = 800
	sysState, err := pipeline.Systemize(w.Dataset, pipeline.SystemizeOpts{
		LabelPA:      platform.Twitter,
		LabelPB:      platform.Facebook,
		LabelPersons: pipeline.LabeledHalf(w.Dataset),
		Lexicons:     features.Lexicons{Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment},
		FeatCfg:      fcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := pipeline.Block(sysState, pipeline.BlockOpts{
		Pairs: [][2]platform.ID{{platform.Twitter, platform.Facebook}},
		Rules: blocking.DefaultRules(),
		Label: core.DefaultLabelOpts(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := pipeline.Fit(blocked, core.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := fitted.Bundle(0)
	if err != nil {
		t.Fatal(err)
	}
	return bundle
}

// TestPrescreenlessBundleServesExactOnly is the fallback gate: a v3
// bundle with its prescreen section stripped (what every pre-prescreen
// packer produced) still decodes, serves, and answers byte-identically
// to a prescreen-carrying engine — just without pruning.
func TestPrescreenlessBundleServesExactOnly(t *testing.T) {
	e := getEnv(t)
	stripped := wideBundle(e.bundle)
	stripped.Prescreen = nil
	var buf bytes.Buffer
	if err := pipeline.WriteBundle(&buf, stripped); err != nil {
		t.Fatal(err)
	}
	decoded, err := pipeline.ReadBundle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Prescreen != nil {
		t.Fatal("stripped bundle grew a prescreen through the round trip")
	}
	plain, err := NewEngineFromBundle(decoded, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Model.HasPrescreen() {
		t.Fatal("prescreen-less bundle attached a prescreen")
	}
	if ph := plain.PrescreenHealth(); ph != nil {
		t.Fatalf("exact-only engine reports prescreen health %+v", ph)
	}
	pre, _ := widePair(t, e.bundle, 1)
	for a := 0; a < 8; a++ {
		got, err := plain.TopK(platform.Twitter, a, platform.Facebook, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pre.TopK(platform.Twitter, a, platform.Facebook, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("a=%d row %d: exact-only %+v vs prescreen %+v", a, i, got[i], want[i])
			}
		}
	}
}

// TestTwoTierSteadyStateAllocs pins the two-tier path's zero-alloc
// steady state: a warm top-k through prescreen + chunked rescore with a
// recycled dst allocates nothing, like the exact path it shadows. Named
// without "Prescreen" so, like TestSteadyStateAllocs, it stays outside
// the make race filter — the race runtime's bookkeeping would show up
// in the counts.
func TestTwoTierSteadyStateAllocs(t *testing.T) {
	e := getEnv(t)
	pre, _ := widePair(t, e.bundle, 1)
	var dst []Scored
	var err error
	// Warm: grow every pooled buffer and the source's pair cache.
	for a := 0; a < 4; a++ {
		if dst, err = pre.TopKAppend(dst[:0], platform.Twitter, a, platform.Facebook, 5); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if dst, err = pre.TopKAppend(dst[:0], platform.Twitter, 1, platform.Facebook, 5); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm prescreen top-k allocates %v times per op, want 0", avg)
	}
}

// BenchmarkServeTopKWideExact and ...WidePrescreen are the headline
// pair: the same k=5 query over a production-shaped (full cross
// product) shard, with the prescreen off and on. The gap is the
// support-set floor the two-tier path breaks; bench-smoke keeps both
// compiling, the numbers come from bench/ (topk-wide).
func BenchmarkServeTopKWideExact(b *testing.B) {
	benchWideTopK(b, false)
}

func BenchmarkServeTopKWidePrescreen(b *testing.B) {
	benchWideTopK(b, true)
}

func benchWideTopK(b *testing.B, prescreen bool) {
	e, _ := benchEnv(b)
	eng, err := NewEngineFromBundle(wideBundle(e.bundle), 0)
	if err != nil {
		b.Fatal(err)
	}
	eng.SetPrescreenEnabled(prescreen)
	na := len(e.bundle.Views[platform.Twitter])
	var dst []Scored
	for a := 0; a < na; a++ { // warm pair cache + pooled buffers
		if dst, err = eng.TopKAppend(dst[:0], platform.Twitter, a, platform.Facebook, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = eng.TopKAppend(dst[:0], platform.Twitter, i%na, platform.Facebook, 5); err != nil {
			b.Fatal(err)
		}
	}
}
