package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

// testEnv is the shared serving fixture: a model trained through the
// staged pipeline, its parts rebuilt over an independent Systemize of
// its world into the builder-backed reference engine — built once
// because training dominates test time. The same fit is also packed into
// a bundle (round-tripped through the bundle codec) and restored into a
// second, world-free engine, so every test can diff what ships against
// the system it was packed from.
type testEnv struct {
	eng     *Engine // reference: model parts + re-systemized dataset (newWorldEngine)
	beng    *Engine // snapshot-backed: bundle only
	trained *core.Model
	task    *core.Task
	bundle  *pipeline.Bundle
	// The serialized bundle, so the cold-start benchmarks pay the decode
	// a real process start pays.
	bundleBytes []byte
}

// newWorldEngine is the builder-backed reference engine: it rebuilds the
// fit's feature system from raw data — a second Systemize of the same
// dataset with the same recipe, not the shared fitted system — loads the
// trained model parts over it and rebuilds the candidate indexes, so the
// identity tests can hold every bundle-backed engine to the answers of
// an independent rebuild of the system the bundle was packed from. The
// product does not serve this way; it lives here as the tests' oracle.
func newWorldEngine(fitted *pipeline.FitState, workers int) (*Engine, error) {
	art, err := fitted.Artifact()
	if err != nil {
		return nil, err
	}
	ds := fitted.DS
	st, err := pipeline.Systemize(ds, fitted.SystemState.Opts)
	if err != nil {
		return nil, err
	}
	model, err := core.ModelFromParts(st.Sys.LazyStore, art.Model)
	if err != nil {
		return nil, err
	}
	st.Sys.LimitPairCache(DefaultPairCacheEntries)
	e := &Engine{
		Sys:     st.Sys.LazyStore,
		Model:   model,
		Workers: workers,
		indexes: make(map[[2]platform.ID]*blocking.Index, len(art.Pairs)),

		survivors: newSurvivorHistogram(),
	}
	rules := art.Rules
	rules.Workers = workers
	for _, pp := range art.Pairs {
		platA, err := ds.Platform(pp[0])
		if err != nil {
			return nil, err
		}
		platB, err := ds.Platform(pp[1])
		if err != nil {
			return nil, err
		}
		if e.indexes[pp], err = blocking.BuildIndex(platA, platB, st.Sys.Faces(), rules); err != nil {
			return nil, err
		}
	}
	return e, nil
}

var (
	envOnce sync.Once
	env     testEnv
	envErr  error
)

func getEnv(tb testing.TB) testEnv {
	tb.Helper()
	envOnce.Do(func() { env, envErr = buildEnv() })
	if envErr != nil {
		tb.Fatal(envErr)
	}
	return env
}

func buildEnv() (testEnv, error) {
	const seed = 4
	w, err := synth.Generate(synth.DefaultConfig(36, platform.EnglishPlatforms, seed))
	if err != nil {
		return testEnv{}, err
	}
	fcfg := features.DefaultConfig(seed)
	fcfg.LDAIterations = 25
	fcfg.MaxLDADocs = 1500
	sysState, err := pipeline.Systemize(w.Dataset, pipeline.SystemizeOpts{
		LabelPA:      platform.Twitter,
		LabelPB:      platform.Facebook,
		LabelPersons: pipeline.LabeledHalf(w.Dataset),
		Lexicons:     features.Lexicons{Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment},
		FeatCfg:      fcfg,
	})
	if err != nil {
		return testEnv{}, err
	}
	blocked, err := pipeline.Block(sysState, pipeline.BlockOpts{
		Pairs: [][2]platform.ID{{platform.Twitter, platform.Facebook}},
		Rules: blocking.DefaultRules(),
		Label: core.DefaultLabelOpts(seed),
	})
	if err != nil {
		return testEnv{}, err
	}
	fitted, err := pipeline.Fit(blocked, core.DefaultConfig(seed))
	if err != nil {
		return testEnv{}, err
	}
	eng, err := newWorldEngine(fitted, 0)
	if err != nil {
		return testEnv{}, err
	}
	bundle, err := fitted.Bundle(0)
	if err != nil {
		return testEnv{}, err
	}
	var bbuf bytes.Buffer
	if err := pipeline.WriteBundle(&bbuf, bundle); err != nil {
		return testEnv{}, err
	}
	bundleBytes := append([]byte(nil), bbuf.Bytes()...)
	bundle2, err := pipeline.ReadBundle(&bbuf)
	if err != nil {
		return testEnv{}, err
	}
	beng, err := NewEngineFromBundle(bundle2, 0)
	if err != nil {
		return testEnv{}, err
	}
	return testEnv{
		eng:         eng,
		beng:        beng,
		trained:     fitted.Linker.Model(),
		task:        blocked.Task,
		bundle:      bundle2,
		bundleBytes: bundleBytes,
	}, nil
}

// TestEngineScoresBitExact asserts the restored engine serves the same
// bits the in-memory trained model produces, for every candidate pair.
func TestEngineScoresBitExact(t *testing.T) {
	e := getEnv(t)
	b := e.task.Blocks[0]
	for _, c := range b.Cands {
		want, err := e.trained.Score(b.PA, c.A, b.PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.eng.Score(b.PA, c.A, b.PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("engine score differs for (%d,%d): %v vs %v", c.A, c.B, got, want)
		}
	}
}

// TestTopKMatchesShardBruteForce asserts a top-k answer equals scoring the
// account's full candidate shard and sorting — and that it only ever draws
// from the shard (the full-B-side scan the index exists to avoid would
// surface extra accounts).
func TestTopKMatchesShardBruteForce(t *testing.T) {
	e := getEnv(t)
	const k = 3
	checked := 0
	for a := 0; a < 12; a++ {
		res, err := e.eng.TopK(platform.Twitter, a, platform.Facebook, k)
		if err != nil {
			t.Fatal(err)
		}
		full, err := e.eng.TopK(platform.Twitter, a, platform.Facebook, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > k {
			t.Fatalf("topk(%d) returned %d results", k, len(res))
		}
		for i, r := range res {
			if full[i] != r {
				t.Fatalf("a=%d: topk row %d differs from ranked shard: %+v vs %+v", a, i, r, full[i])
			}
			want, err := e.eng.Score(platform.Twitter, a, platform.Facebook, r.B)
			if err != nil {
				t.Fatal(err)
			}
			if r.Score != want {
				t.Fatalf("a=%d b=%d: topk score %v, direct score %v", a, r.B, r.Score, want)
			}
		}
		for i := 1; i < len(full); i++ {
			if full[i-1].Score < full[i].Score {
				t.Fatalf("a=%d: ranking not descending at %d", a, i)
			}
		}
		checked += len(res)
	}
	if checked == 0 {
		t.Fatal("no top-k results checked")
	}
	if _, err := e.eng.TopK(platform.Facebook, 0, platform.Twitter, k); err == nil {
		t.Fatal("expected error for unindexed pair direction")
	}
}

// TestServeConcurrentQueries hammers one engine from many goroutines
// (score, batch and top-k mixed) and asserts every answer matches the
// sequential reference — the serving engine's concurrency contract, run
// under -race by make race.
func TestServeConcurrentQueries(t *testing.T) {
	e := getEnv(t)
	b := e.task.Blocks[0]
	cands := b.Cands
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	want := make([]float64, len(cands))
	for i, c := range cands {
		s, err := e.eng.Score(b.PA, c.A, b.PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, c := range cands {
				switch (i + g) % 3 {
				case 0:
					s, err := e.eng.Score(b.PA, c.A, b.PB, c.B)
					if err != nil {
						errs[g] = err
						return
					}
					if s != want[i] {
						t.Errorf("g%d: concurrent score %d differs", g, i)
						return
					}
				case 1:
					scores, err := e.eng.ScoreBatch(b.PA, b.PB, [][2]int{{c.A, c.B}})
					if err != nil {
						errs[g] = err
						return
					}
					if scores[0] != want[i] {
						t.Errorf("g%d: concurrent batch score %d differs", g, i)
						return
					}
				default:
					if _, err := e.eng.TopK(b.PA, c.A, b.PB, 2); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestREPL drives the stdin front-end through every command.
func TestREPL(t *testing.T) {
	e := getEnv(t)
	in := strings.NewReader(strings.Join([]string{
		"pairs",
		"# a comment, then a blank line",
		"",
		"score twitter 0 facebook 0",
		"link twitter 0 facebook 0",
		"topk twitter 0 facebook 3",
		"batch twitter facebook 0:0 0:1",
		"score twitter notanint facebook 0",
		"bogus",
		"quit",
		"score twitter 0 facebook 0", // after quit: must not run
	}, "\n"))
	var out bytes.Buffer
	if err := e.eng.REPL(in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"twitter -> facebook\n",
		"score ",
		"linked ",
		"error: account ids must be integers",
		`error: unknown command "bogus"`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("REPL output missing %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "score "); n != 2 { // score cmd + link's "score" field
		t.Fatalf("expected no commands to run after quit, output:\n%s", got)
	}
}

// TestHTTPFrontend exercises the JSON endpoints end to end.
func TestHTTPFrontend(t *testing.T) {
	e := getEnv(t)
	srv := httptest.NewServer(e.eng.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK    bool             `json:"ok"`
		Pairs [][2]platform.ID `json:"pairs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.OK || len(health.Pairs) != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	b := e.task.Blocks[0]
	pairs := [][2]int{{b.Cands[0].A, b.Cands[0].B}, {b.Cands[1].A, b.Cands[1].B}}
	body, _ := json.Marshal(map[string]any{"pa": b.PA, "pb": b.PB, "pairs": pairs})
	resp, err = http.Post(srv.URL+"/link", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var linkResp struct {
		Scores []float64 `json:"scores"`
		Linked []bool    `json:"linked"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&linkResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(linkResp.Scores) != 2 || len(linkResp.Linked) != 2 {
		t.Fatalf("link response = %+v", linkResp)
	}
	for i, p := range pairs {
		want, err := e.eng.Score(b.PA, p[0], b.PB, p[1])
		if err != nil {
			t.Fatal(err)
		}
		if linkResp.Scores[i] != want {
			t.Fatalf("http score %d = %v, want %v", i, linkResp.Scores[i], want)
		}
		if linkResp.Linked[i] != (want > 0) {
			t.Fatalf("http linked %d inconsistent with score", i)
		}
	}

	resp, err = http.Get(srv.URL + "/topk?pa=twitter&a=0&pb=facebook&k=2")
	if err != nil {
		t.Fatal(err)
	}
	var topkResp struct {
		Results []Scored `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topkResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want, err := e.eng.TopK(platform.Twitter, 0, platform.Facebook, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(topkResp.Results) != len(want) {
		t.Fatalf("topk returned %d rows, want %d", len(topkResp.Results), len(want))
	}
	for i := range want {
		if topkResp.Results[i] != want[i] {
			t.Fatalf("topk row %d = %+v, want %+v", i, topkResp.Results[i], want[i])
		}
	}

	// Error paths: bad method, bad body, bad query.
	resp, _ = http.Get(srv.URL + "/score")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /score = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(srv.URL+"/score", "application/json", strings.NewReader(`{"pairs":[]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty pairs = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(srv.URL + "/topk?a=zero")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad topk query = %d", resp.StatusCode)
	}
	resp.Body.Close()
}
