package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
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
// and HTTP front-ends. The fixtures pack their indexes over the full
// cross product: the default blocking rules leave shards of ~3
// candidates where a k=5 query has nothing to prune, and an unengaged
// prescreen would make every assertion vacuous (TestPrescreenBitExact
// checks it actually engaged). The index is widened at pack time, not
// after: the certificate covers exactly the index rows the bundle was
// packed with.

// widePack packs the fit with topK candidates per index row, or with
// every B-side account in every row when topK ≤ 0 — production-shaped
// shards for the pruning path, and the certificate over all of them.
func widePack(fitted *pipeline.FitState, topK int) (*pipeline.Bundle, error) {
	art, err := fitted.Artifact()
	if err != nil {
		return nil, err
	}
	art.Rules.TopK = topK
	if topK <= 0 {
		for _, pp := range art.Pairs {
			pb, err := fitted.DS.Platform(pp[1])
			if err != nil {
				return nil, err
			}
			art.Rules.TopK = max(art.Rules.TopK, pb.NumAccounts())
		}
	}
	return pipeline.BundleFromArtifact(art, fitted.DS, 0)
}

// widePair returns two engines over a wide bundle at the given worker
// count: one with the bundle's prescreen active, one forced exact-only.
func widePair(t testing.TB, wb *pipeline.Bundle, workers int) (pre, exact *Engine) {
	t.Helper()
	if wb.Prescreen == nil {
		t.Fatal("bundle carries no prescreen — packBundle should have built one for an RBF model")
	}
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
		pre, exact := widePair(t, e.wide, workers)
		na := len(e.wide.Views[platform.Twitter])
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
	pre, exact := widePair(t, e.wide, 1)
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
		bundle, err := widePack(propertyFit(t, seed), 0)
		if err != nil {
			t.Fatal(err)
		}
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

// propertyFit trains a small world end to end — one randomized instance
// of the property tests' universe.
func propertyFit(t *testing.T, seed int64) *pipeline.FitState {
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
	return fitted
}

// TestPrescreenCertifiesIndexPairs holds the certificate to what it
// claims over five seeded worlds, each packed twice: with the default
// 3-wide index rows and with 16-wide ones (a real index, not the cross
// product). |f − f̃| ≤ ε on every index pair, and the largest gap equals
// the recorded EpsRaw — the margin is measured over exactly these pairs,
// through the serving fold. The two-tier top-k equals the exact one on
// every row at k ∈ {1, 5, row − 8}, and it prunes on the 16-wide rows.
// The same holds on both shard engines of a 2-way split, whose rows are
// subsets of the packed ones.
func TestPrescreenCertifiesIndexPairs(t *testing.T) {
	for _, seed := range []int64{11, 29, 3, 5, 17} {
		fitted := propertyFit(t, seed)
		for _, width := range []int{3, 16} {
			b, err := widePack(fitted, width)
			if err != nil {
				t.Fatal(err)
			}
			ps := b.Prescreen
			if ps == nil || ps.Safety != 1 || ps.Eps != math.Nextafter(ps.EpsRaw, math.Inf(1)) {
				t.Fatalf("seed=%d width=%d: prescreen %+v is not a safety-1 certificate", seed, width, ps)
			}
			shards, err := pipeline.SplitBundle(b, 2, uint64(seed), 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, sb := range append([]*pipeline.Bundle{b}, shards...) {
				name := fmt.Sprintf("seed=%d width=%d bundle=%d", seed, width, i)
				worst, pruned := checkCertificate(t, sb, name)
				if i == 0 && worst != ps.EpsRaw {
					t.Fatalf("%s: largest index-pair gap %v, recorded EpsRaw %v", name, worst, ps.EpsRaw)
				}
				if width == 16 && pruned == 0 {
					t.Fatalf("%s: prescreen never pruned — the top-k check is vacuous", name)
				}
			}
		}
	}
}

// checkCertificate checks one bundle's engine row by row: every index
// pair within ε of its exact score, and the two-tier top-k equal to the
// exact one at k ∈ {1, 5, row − 8}. It returns the largest gap seen and
// how many candidates the prescreen pruned.
func checkCertificate(t *testing.T, b *pipeline.Bundle, name string) (float64, uint64) {
	t.Helper()
	pre, exact := widePair(t, b, 1)
	ix := b.Indexes[0]
	eps, worst := pre.Model.PrescreenEps(), 0.0
	for a, row := range ix.ByA {
		if len(row) == 0 {
			continue
		}
		pairs := make([][2]int, len(row))
		for i, c := range row {
			pairs[i] = [2]int{a, c.B}
		}
		f, err := exact.Model.ScoreBatchWorkers(ix.PA, ix.PB, pairs, 1)
		if err != nil {
			t.Fatal(err)
		}
		approx := make([]float64, len(pairs))
		if err := pre.Model.PrescreenBatchInto(ix.PA, ix.PB, pairs, 1, approx); err != nil {
			t.Fatal(err)
		}
		for i := range f {
			gap := math.Abs(f[i] - approx[i])
			if gap > eps {
				t.Fatalf("%s: pair %v: |f − f̃| = %v exceeds ε = %v", name, pairs[i], gap, eps)
			}
			worst = max(worst, gap)
		}
		for _, k := range []int{1, 5, len(row) - 8} {
			if k < 1 {
				continue
			}
			got, err := pre.TopK(ix.PA, a, ix.PB, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := exact.TopK(ix.PA, a, ix.PB, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: k=%d a=%d: two-tier %+v, exact %+v", name, k, a, got, want)
			}
		}
	}
	return worst, pre.PrescreenHealth().Pruned
}

// TestPrescreenlessBundleServesExactOnly is the fallback gate: a v3
// bundle with its prescreen section stripped (what every pre-prescreen
// packer produced) still decodes, serves, and answers byte-identically
// to a prescreen-carrying engine — just without pruning.
func TestPrescreenlessBundleServesExactOnly(t *testing.T) {
	e := getEnv(t)
	stripped := *e.wide
	stripped.Prescreen = nil
	var buf bytes.Buffer
	if err := pipeline.WriteBundle(&buf, &stripped); err != nil {
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
	pre, _ := widePair(t, e.wide, 1)
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

// TestTwoTierSteadyStateAllocs pins the two-tier path's steady state: a
// warm top-k through prescreen + chunked rescore with a recycled dst
// allocates nothing at workers 1, like the exact path it shadows. At
// workers 4 the query (a = 1) rescores two chunks, and each fans out
// twice — the Eqn-18 heads and CrossGramInto — at 7 allocations per
// parallel.For (4 goroutine closures, the counter, the WaitGroup and
// the caller's closure): the budget is those 28, so any other
// allocation on the fanned-out path fails here. (AllocsPerRun pins
// GOMAXPROCS to 1, so a workers-0 engine would measure as workers 1.)
// Named without "Prescreen" so, like TestSteadyStateAllocs, it stays
// outside the make race filter — the race runtime's bookkeeping would
// show up in the counts.
func TestTwoTierSteadyStateAllocs(t *testing.T) {
	e := getEnv(t)
	for _, tc := range []struct {
		workers int
		budget  float64
	}{{1, 0}, {4, 28}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			pre, _ := widePair(t, e.wide, tc.workers)
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
			if avg > tc.budget {
				t.Fatalf("warm prescreen top-k allocates %v times per op, want ≤ %v", avg, tc.budget)
			}
		})
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
	eng, err := NewEngineFromBundle(e.wide, 0)
	if err != nil {
		b.Fatal(err)
	}
	eng.SetPrescreenEnabled(prescreen)
	na := len(e.wide.Views[platform.Twitter])
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
