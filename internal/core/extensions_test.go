package core

import (
	"testing"

	"hydra/internal/platform"
)

func TestTuneThreshold(t *testing.T) {
	_, sys := buildSystem(t, 50, platform.EnglishPlatforms, 13)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(13))
	linker := &HydraLinker{Cfg: DefaultConfig(13)}
	if err := linker.Fit(sys, task); err != nil {
		t.Fatal(err)
	}
	thr, err := TuneThreshold(sys, linker, task)
	if err != nil {
		t.Fatal(err)
	}
	// The tuned threshold must be finite and in a plausible score range.
	if thr < -5 || thr > 5 {
		t.Fatalf("threshold = %v out of range", thr)
	}
}

func TestTuneThresholdValidation(t *testing.T) {
	_, sys := buildSystem(t, 20, platform.EnglishPlatforms, 14)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook,
		LabelOpts{LabelFraction: 0, Seed: 14})
	// No labeled pair is ever scored, so the linker need not be fitted.
	if _, err := TuneThreshold(sys, &HydraLinker{Cfg: DefaultConfig(14)}, task); err == nil {
		t.Fatal("expected error without labels")
	}
}
