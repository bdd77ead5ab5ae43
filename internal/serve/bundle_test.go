package serve

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
)

// TestServeBundleEquivalence locks the tentpole contract: the
// snapshot-backed engine answers the full query surface — score, link,
// top-k (full shard and truncated) and batch — bit-identical to the
// world-backed engine it was packed from. It runs under `make race`
// alongside the other Serve tests.
func TestServeBundleEquivalence(t *testing.T) {
	e := getEnv(t)
	if !reflect.DeepEqual(e.eng.Pairs(), e.beng.Pairs()) {
		t.Fatalf("indexed pairs differ: %v vs %v", e.eng.Pairs(), e.beng.Pairs())
	}
	b := e.task.Blocks[0]
	if len(b.Cands) == 0 {
		t.Fatal("no candidates")
	}

	// Score + link over every candidate pair.
	for _, c := range b.Cands {
		want, err := e.eng.Score(b.PA, c.A, b.PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.beng.Score(b.PA, c.A, b.PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("bundle score differs for (%d,%d): %v vs %v", c.A, c.B, got, want)
		}
		wl, ws, err := e.eng.Link(b.PA, c.A, b.PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		gl, gs, err := e.beng.Link(b.PA, c.A, b.PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		if gl != wl || gs != ws {
			t.Fatalf("bundle link differs for (%d,%d): (%v,%v) vs (%v,%v)", c.A, c.B, gl, gs, wl, ws)
		}
	}

	// Batch over the whole candidate set in one pass.
	pairs := make([][2]int, len(b.Cands))
	for i, c := range b.Cands {
		pairs[i] = [2]int{c.A, c.B}
	}
	want, err := e.eng.ScoreBatch(b.PA, b.PB, pairs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.beng.ScoreBatch(b.PA, b.PB, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("bundle batch scores differ")
	}

	// Top-k for every A-side account: the full ranked shard and a
	// truncated prefix.
	for a := 0; a < e.eng.NumAccounts(b.PA); a++ {
		full, err := e.eng.TopK(b.PA, a, b.PB, 0)
		if err != nil {
			t.Fatal(err)
		}
		bfull, err := e.beng.TopK(b.PA, a, b.PB, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bfull, full) {
			t.Fatalf("a=%d: bundle top-k shard differs:\n%v\nvs\n%v", a, bfull, full)
		}
		top3, err := e.eng.TopK(b.PA, a, b.PB, 3)
		if err != nil {
			t.Fatal(err)
		}
		btop3, err := e.beng.TopK(b.PA, a, b.PB, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(btop3, top3) {
			t.Fatalf("a=%d: bundle top-3 differs", a)
		}
	}
}

// TestServeBundleREPLMatchesWorld diffs the two engines' REPL output byte
// for byte over every command — the human-facing surface, including the
// top-k username column that must come from the snapshot views rather
// than the (absent) dataset.
func TestServeBundleREPLMatchesWorld(t *testing.T) {
	e := getEnv(t)
	script := strings.Join([]string{
		"pairs",
		"score twitter 0 facebook 0",
		"link twitter 1 facebook 2",
		"topk twitter 0 facebook 5",
		"topk twitter 3 facebook",
		"batch twitter facebook 0:0 0:1 1:2",
		"score twitter 9999 facebook 0",
		"quit",
	}, "\n")
	var worldOut, bundleOut bytes.Buffer
	if err := e.eng.REPL(strings.NewReader(script), &worldOut); err != nil {
		t.Fatal(err)
	}
	if err := e.beng.REPL(strings.NewReader(script), &bundleOut); err != nil {
		t.Fatal(err)
	}
	if worldOut.String() != bundleOut.String() {
		t.Fatalf("REPL output differs:\n--- world ---\n%s--- bundle ---\n%s", worldOut.String(), bundleOut.String())
	}
	if !strings.Contains(worldOut.String(), `"`) {
		t.Fatal("top-k output carries no usernames")
	}
}

// TestServeBundleStoreShape sanity-checks the snapshot store the bundle
// engine runs on — the same *core.LazyStore a mapped engine gets, over
// the decoded bundle's in-memory snapshot: both platforms present with
// the world's account counts, friend slices cut at the model's
// TopFriends, and the ground-truth person id scrubbed from every view
// the snapshot restores.
func TestServeBundleStoreShape(t *testing.T) {
	e := getEnv(t)
	store, ok := e.beng.Sys.(*core.LazyStore)
	if !ok {
		t.Fatalf("bundle engine source is %T, want *core.LazyStore", e.beng.Sys)
	}
	wantPlats := []platform.ID{platform.Facebook, platform.Twitter}
	if !reflect.DeepEqual(store.Platforms(), wantPlats) {
		t.Fatalf("store platforms = %v", store.Platforms())
	}
	if _, err := store.Friends(platform.Twitter, 0, 3); err != nil {
		t.Fatalf("store refuses the default top-3 friends: %v", err)
	}
	for _, id := range wantPlats {
		parts := e.bundle.Views[id]
		if n := e.beng.NumAccounts(id); n != len(parts) || e.eng.NumAccounts(id) != n {
			t.Fatalf("%s: NumAccounts = %d (bundle) / %d (world), want %d", id, n, e.eng.NumAccounts(id), len(parts))
		}
		for i := range parts {
			v := features.RestoreView(parts[i], id, i)
			if v.Acc.Person != -1 {
				t.Fatalf("%s account %d: snapshot leaked person id %d", id, i, v.Acc.Person)
			}
			if len(v.Acc.Posts) != 0 {
				t.Fatalf("%s account %d: snapshot leaked %d raw posts", id, i, len(v.Acc.Posts))
			}
		}
	}
	// Imputation deeper than the packed slices must fail loudly, not
	// silently average over a truncated core structure.
	if _, err := store.Impute(platform.Twitter, 0, platform.Facebook, 0, core.HydraM, 4); err == nil {
		t.Fatal("expected error imputing beyond the packed friend depth")
	}
}

// TestServeBundleVersionGate asserts both directions of the version gate
// and that the formats cannot be confused for each other.
func TestServeBundleVersionGate(t *testing.T) {
	e := getEnv(t)
	bad := *e.bundle
	bad.Version = pipeline.BundleVersion + 1
	var buf bytes.Buffer
	if err := pipeline.WriteBundle(&buf, &bad); err == nil {
		t.Fatalf("expected write rejection for unknown version %d", bad.Version)
	}
	// The retired v2 JSON format is neither written nor read.
	bad.Version = 2
	if err := pipeline.WriteBundle(&buf, &bad); err == nil {
		t.Fatal("expected write rejection for the retired JSON version 2")
	}
	if _, err := pipeline.ReadBundle([]byte(`{"version":2,"views":{}}`)); err == nil || !strings.Contains(err.Error(), "hydra-link -save-bundle") {
		t.Fatalf("expected a v2 JSON bundle to be refused with the hydra-link -save-bundle pointer, got %v", err)
	}
	// A tampered version stamp inside a v3 binary header is rejected.
	buf.Reset()
	if err := pipeline.WriteBundle(&buf, e.bundle); err != nil {
		t.Fatal(err)
	}
	raw := bytes.Replace(buf.Bytes(), []byte(`"version":3`), []byte(`"version":9`), 1)
	if _, err := pipeline.ReadBundle(raw); err == nil {
		t.Fatal("expected read rejection for a tampered v3 header version")
	}
	// A retired v1 model artifact fed to the bundle reader is refused the
	// same way.
	if _, err := pipeline.ReadBundle([]byte(`{"version":1,"model":{}}`)); err == nil || !strings.Contains(err.Error(), "hydra-link -save-bundle") {
		t.Fatalf("expected a v1 artifact to be refused with the hydra-link -save-bundle pointer, got %v", err)
	}
	// A bundle whose friend slices are shallower than the model's
	// imputation depth must fail at load time, not on the first query.
	shallow := *e.bundle
	shallow.FriendsK = shallow.Model.Cfg.ResolvedTopFriends() - 1
	if _, err := shallow.Store(); err == nil {
		t.Fatal("expected Store to reject a friend depth below the model's imputation depth")
	}
}
