package pipeline

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hydra/internal/attr"
	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/temporal"
	"hydra/internal/vision"
)

// The golden-file tests pin the one wire format, the v3 binary-section
// bundle, byte for byte. The fixtures are hand-built (no training
// involved), so these tests fail on codec drift — a renamed JSON key, a
// dropped field, a changed version constant — and on nothing else. An
// accidental change here would corrupt every deployed model, so the
// failure mode is CI red, not silent misdecoding. After an *intentional*
// format change, regenerate with:
//
//	go test ./internal/pipeline/ -run Golden -update
//
// and bump BundleVersion.

var update = flag.Bool("update", false, "rewrite the golden format fixtures")

// fixtureFeatCfg is a fully-populated feature config with non-default
// values, so any dropped field shows up in the bytes.
func fixtureFeatCfg() features.Config {
	return features.Config{
		Topics:                   4,
		LDAIterations:            9,
		MaxLDADocs:               100,
		ScalesDays:               []int{1, 4},
		StyleKs:                  []int{1, 3},
		UniqueWordsPerUser:       3,
		MR:                       temporal.MultiResolutionConfig{WindowsDays: []int{1, 2}, Q: 4, Lambda: 4, MeanPooling: false},
		LocationSigmaKm:          5,
		UseHistogramIntersection: true,
		Epsilon:                  0.001,
		Seed:                     11,
	}
}

func fixtureModelParts() core.ModelParts {
	cfg := core.DefaultConfig(11)
	cfg.KernelSigma = 0.75
	return core.ModelParts{
		Cfg:         cfg,
		KernelKind:  core.KernelRBF,
		KernelSigma: 0.75,
		Xs:          []linalg.Vector{{0.125, 0.25}, {0.5, 0.0625}},
		Alpha:       linalg.Vector{0.5, -0.5},
		Bias:        0.03125,
		Diag:        core.Diagnostics{N: 2, NL: 2, SMOIters: 7, NnzBeta: 2, MDensity: 0.5, FD: 0.1, FS: 0.2, EffGammaM: 30, ReweightDone: 1, LKProducts: 1},
	}
}

func fixtureRules() blocking.Rules {
	return blocking.Rules{TopK: 2, MinScore: 0.75, PreMatchJW: 0.9, PreMatchAttrs: 2, PreMatchFace: 0.85}
}

func fixtureBundle() *Bundle {
	t0 := time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)
	span := temporal.Range{Start: t0, End: t0.AddDate(1, 0, 0)}
	view := func(name string, avatar uint64) features.ViewParts {
		return features.ViewParts{
			Username:   name,
			Attrs:      map[platform.AttrName]string{platform.AttrGender: "f", platform.AttrCity: "Springfield"},
			AvatarID:   avatar,
			Events:     []temporal.Event{{Time: t0.Add(24 * time.Hour), Lat: 1.5, Lon: -2.25, MediaID: 0}, {Time: t0.Add(48 * time.Hour), MediaID: 42}},
			PostTimes:  []time.Time{t0.Add(36 * time.Hour)},
			TopicDists: []linalg.Vector{{0.25, 0.25, 0.25, 0.25}},
			GenreDists: []linalg.Vector{{0.5, 0.5}},
			SentDists:  []linalg.Vector{{0.125, 0.875}},
			Unique:     []string{"zweird", "zrare"},
			Embedding:  linalg.Vector{0.25, 0.75},
		}
	}
	return &Bundle{
		Version: BundleVersion,
		Pipeline: features.PipelineParts{
			Cfg:  fixtureFeatCfg(),
			Span: span,
			Importance: &attr.Importance{
				Attrs:  []platform.AttrName{platform.AttrGender, platform.AttrCity},
				Scores: linalg.Vector{0.375, 0.625},
			},
		},
		Views: map[platform.ID][]features.ViewParts{
			platform.Twitter:  {view("alice_tw", 1)},
			platform.Facebook: {view("alice_fb", 1)},
		},
		Friends: map[platform.ID][][]graph.Friend{
			platform.Twitter:  {{{ID: 0, Weight: 2.5}}},
			platform.Facebook: {{}},
		},
		FriendsK: 3,
		Faces:    vision.Matcher{DetectRate: 0.85, NoiseSigma: 0.08, Seed: 11},
		Model:    fixtureModelParts(),
		Pairs:    [][2]platform.ID{{platform.Twitter, platform.Facebook}},
		Indexes: []blocking.IndexParts{{
			PA:    platform.Twitter,
			PB:    platform.Facebook,
			Rules: fixtureRules(),
			ByA:   [][]blocking.Candidate{{{A: 0, B: 0, Score: 0.875, PreMatched: true}}},
		}},
		WorldPersons:     2,
		WorldFingerprint: "00000000deadbeef",
	}
}

// checkGolden encodes the fixture with the production writer and diffs
// it against the checked-in golden bytes (rewriting them under -update).
func checkGolden(t *testing.T, name string, encode func(*bytes.Buffer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s drifted from the golden bytes — if the format change is intentional, bump the version constant and rerun with -update", name)
	}
	return want
}

// checkBundleGolden pins one bundle wire format: golden bytes, decode
// round trip, and that the decoded bundle still restores into a working
// snapshot store (the whole point of the format).
func checkBundleGolden(t *testing.T, b *Bundle, goldenName string) {
	t.Helper()
	golden := checkGolden(t, goldenName, func(buf *bytes.Buffer) error {
		return WriteBundle(buf, b)
	})
	decoded, err := ReadBundle(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, b) {
		t.Fatalf("decoded golden bundle differs from fixture:\n%+v\nvs\n%+v", decoded, b)
	}
	store, err := decoded.Store()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Friends(platform.Twitter, 0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Friends(platform.Twitter, 0, 4); err == nil {
		t.Fatal("restored store serves friends beyond its packed top-3")
	}
	if name := store.Username(platform.Twitter, 0); name != "alice_tw" {
		t.Fatalf("restored store username = %q", name)
	}
	if _, err := core.ModelFromParts(store, decoded.Model); err != nil {
		t.Fatal(err)
	}
}

// TestBundleV3GoldenFormat pins the v3 binary-section bundle without a
// prescreen — exactly what pre-prescreen writers produced, so this
// golden doubles as the backward-compatibility gate for old bundles.
func TestBundleV3GoldenFormat(t *testing.T) {
	checkBundleGolden(t, fixtureBundle(), "bundle_v3.golden.bin")
}

// fixturePrescreen is a tiny hand-written prescreen consistent with
// fixtureModelParts' 2-dim feature space: three reduced-set centers, so
// every field of the wire layout appears in the golden bytes.
func fixturePrescreen() *core.PrescreenParts {
	return &core.PrescreenParts{
		Features: 3, Dim: 2, Seed: 77,
		C:      linalg.Vector{0.375, -1.25, 0.5, -0.25, 1.5, 0.75},
		Sigma:  0.8,
		V:      linalg.Vector{0.0625, -0.03125, 0.5},
		EpsRaw: 0.25, Safety: 2, Eps: 0.5,
	}
}

// TestBundleV3PrescreenGoldenFormat pins the v3 bundle *with* the
// optional trailing prescreen section, and asserts the decoded parts
// attach to the restored model (the serving path old bundles skip).
func TestBundleV3PrescreenGoldenFormat(t *testing.T) {
	b := fixtureBundle()
	b.Prescreen = fixturePrescreen()
	checkBundleGolden(t, b, "bundle_v3_prescreen.golden.bin")
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadBundle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	store, err := decoded.Store()
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.ModelFromParts(store, decoded.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetPrescreen(decoded.Prescreen); err != nil {
		t.Fatal(err)
	}
	if !m.HasPrescreen() || m.PrescreenEps() != 0.5 {
		t.Fatal("decoded prescreen did not attach to the restored model")
	}
}
