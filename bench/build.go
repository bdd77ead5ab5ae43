package main

// The training side: one timed Systemize -> Block -> Fit -> pack -> Save
// -> Evaluate cycle over the synthetic world. It always runs in a child
// process (`-child build`), so the training heap never counts towards a
// serving workload's rss_peak_mb and every cycle starts from a fresh GC.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

var (
	platA = platform.Twitter
	platB = platform.Facebook
)

// buildReport is what a build child prints: the cycle's stage times, the
// identity of the bundle it saved and, with trace set, the training-side
// layer metrics.
type buildReport struct {
	Stages         map[string]float64 `json:"stages"` // pipeline.*_s
	SynthS         float64            `json:"synth_s"`
	TrainS         float64            `json:"train_s"`
	F1             float64            `json:"f1"`
	Bytes          int64              `json:"bytes"`
	SHA256         string             `json:"sha256"`
	SupportVectors int                `json:"support_vectors"`
	RSSPeakMB      float64            `json:"rss_peak_mb"`
	Runtime        map[string]float64 `json:"runtime"`
	Layers         map[string]float64 `json:"layers,omitempty"`
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// generateWorld is the set-up of the training side. One call is only ten
// milliseconds or so, and the first ones in a fresh process run slower, so
// it is made 21 times and the median is reported.
func generateWorld(persons int) (*synth.World, float64, error) {
	var world *synth.World
	var took []float64
	for i := 0; i < 21; i++ {
		t := time.Now()
		w, err := synth.Generate(synth.DefaultConfig(persons, platform.EnglishPlatforms, worldSeed))
		if err != nil {
			return nil, 0, err
		}
		world, took = w, append(took, since(t))
	}
	return world, median(took), nil
}

// trainCycle runs the timed cycle and saves the bundle at out. indexK
// widens the packed index (and with it the prescreen's and the impute
// table's coverage) to that many candidates per account.
func trainCycle(world *synth.World, indexK int, out string) (*pipeline.FitState, *pipeline.Bundle, *buildReport, error) {
	rep := &buildReport{Stages: map[string]float64{}}
	persons := len(world.Persons)
	labelled := make([]int, persons/2)
	for i := range labelled {
		labelled[i] = i
	}
	start := time.Now()
	t := start
	lap := func(stage string) {
		rep.Stages["pipeline."+stage+"_s"] = since(t)
		t = time.Now()
	}

	sys, err := pipeline.Systemize(world.Dataset, pipeline.SystemizeOpts{
		LabelPA: platA, LabelPB: platB, LabelPersons: labelled,
		Lexicons: features.Lexicons{Genre: world.Lexicons.Genre, Sentiment: world.Lexicons.Sentiment},
		FeatCfg:  features.DefaultConfig(worldSeed),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	lap("systemize")
	blocked, err := pipeline.Block(sys, pipeline.BlockOpts{
		Pairs: [][2]platform.ID{{platA, platB}},
		Rules: blocking.DefaultRules(),
		Label: core.LabelOpts{LabelFraction: 0.3, NegPerPos: 2, UsePreMatched: true, Seed: worldSeed},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	lap("block")
	fitted, err := pipeline.Fit(blocked, core.DefaultConfig(worldSeed))
	if err != nil {
		return nil, nil, nil, err
	}
	lap("fit")
	art, err := fitted.Artifact()
	if err != nil {
		return nil, nil, nil, err
	}
	art.Rules.TopK = indexK
	bundle, err := pipeline.BundleFromArtifact(art, world.Dataset, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	lap("pack")
	if err := pipeline.SaveBundle(out, bundle); err != nil {
		return nil, nil, nil, err
	}
	lap("save")
	evaled, err := pipeline.Evaluate(fitted, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	lap("evaluate")
	rep.TrainS = since(start)

	rep.F1 = evaled.Conf.F1()
	rep.SupportVectors = supportVectors(bundle.Model)
	if rep.Bytes, rep.SHA256, err = fileIdentity(out); err != nil {
		return nil, nil, nil, err
	}
	return fitted, bundle, rep, nil
}

func supportVectors(m core.ModelParts) int {
	n := 0
	for _, a := range m.Alpha {
		if a != 0 {
			n++
		}
	}
	return n
}

func fileIdentity(path string) (int64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, "", fmt.Errorf("hash %s: %w", path, err)
	}
	return n, hex.EncodeToString(h.Sum(nil)), nil
}

// runBuildChild is `-child build`: generate the world, run one cycle,
// print the report.
func runBuildChild(persons, indexK int, out string, trace bool) error {
	world, synthS, err := generateWorld(persons)
	if err != nil {
		return err
	}
	fitted, bundle, rep, err := trainCycle(world, indexK, out)
	if err != nil {
		return err
	}
	rep.SynthS = synthS
	// Read before the layer probes below allocate anything of their own.
	rep.RSSPeakMB = rssPeakMB()
	rep.Runtime = runtimeMetrics()
	if trace {
		if rep.Layers, err = trainingLayers(world, fitted, bundle); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// runChild re-executes this binary with the run's pinned GOMAXPROCS,
// waits for it and decodes the one JSON value it prints.
func runChild(into any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(maxProcs()))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(out, into); err != nil {
		return fmt.Errorf("child %v printed %q: %w", args, out, err)
	}
	return nil
}

// buildBundle trains and packs in a child and leaves the bundle at out.
func buildBundle(persons, indexK int, out string, trace bool) (*buildReport, error) {
	var rep buildReport
	err := runChild(&rep, "-child", "build", "-persons", strconv.Itoa(persons), "-index-k", strconv.Itoa(indexK),
		"-bundle", out, "-trace", boolFlag(trace))
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

func boolFlag(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
