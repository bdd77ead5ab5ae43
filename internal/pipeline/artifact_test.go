package pipeline

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

// writeWorld generates a world and writes it through the platform codec,
// returning the file path — the hydra-gen half of the file workflow.
func writeWorld(t *testing.T, persons int, seed int64) string {
	t.Helper()
	w, err := synth.Generate(synth.DefaultConfig(persons, platform.EnglishPlatforms, seed))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := platform.Encode(f, w.Dataset); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fitWorld runs Load → Systemize → Block → Fit on a world file with the
// cmd defaults, returning the fitted state.
func fitWorld(t *testing.T, worldPath string, seed int64, workers int) *FitState {
	t.Helper()
	ds, err := LoadWorldFile(worldPath)
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := fitDataset(ds, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return fitted
}

// fitDataset runs Systemize → Block → Fit on a loaded dataset with the
// cmd defaults (and a shortened LDA).
func fitDataset(ds *platform.Dataset, seed int64, workers int) (*FitState, error) {
	lx := synth.BuildLexicons(8, 40)
	fcfg := features.DefaultConfig(seed)
	fcfg.LDAIterations = 25
	fcfg.MaxLDADocs = 1500
	sysState, err := Systemize(ds, SystemizeOpts{
		LabelPA:      platform.Twitter,
		LabelPB:      platform.Facebook,
		LabelPersons: LabeledHalf(ds),
		Lexicons:     features.Lexicons{Genre: lx.Genre, Sentiment: lx.Sentiment},
		FeatCfg:      fcfg,
	})
	if err != nil {
		return nil, err
	}
	rules := blocking.DefaultRules()
	rules.Workers = workers
	blocked, err := Block(sysState, BlockOpts{
		Pairs: [][2]platform.ID{{platform.Twitter, platform.Facebook}},
		Rules: rules,
		Label: core.LabelOpts{LabelFraction: 0.3, NegPerPos: 2, UsePreMatched: true, Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	hcfg := core.DefaultConfig(seed)
	hcfg.Workers = workers
	return Fit(blocked, hcfg)
}

// TestArtifactWorldMismatch asserts BundleFromArtifact refuses any
// dataset other than the one the artifact was fitted on — the
// coefficients are only meaningful over the original accounts — even a
// same-size world or a fresh load of the training world file.
func TestArtifactWorldMismatch(t *testing.T) {
	const seed = 3
	worldPath := writeWorld(t, 24, seed)
	fitted := fitWorld(t, worldPath, seed, 1)
	art, err := fitted.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{writeWorld(t, 24, seed+1), worldPath} {
		other, err := LoadWorldFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BundleFromArtifact(art, other, 1); err == nil || !strings.Contains(err.Error(), "fitted on") {
			t.Fatalf("packing over %s: want the foreign dataset refused, got %v", path, err)
		}
	}
	if _, err := BundleFromArtifact(&Artifact{}, fitted.DS, 1); err == nil {
		t.Fatal("want an artifact with no fitted system refused")
	}
	// The fitted dataset still packs.
	if _, err := BundleFromArtifact(art, fitted.DS, 1); err != nil {
		t.Fatalf("packing over the training dataset failed: %v", err)
	}
}
