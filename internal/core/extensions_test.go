package core

import (
	"testing"

	"hydra/internal/platform"
)

func TestLinearLinkerADMM(t *testing.T) {
	_, sys := buildSystem(t, 50, platform.EnglishPlatforms, 11)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(11))
	linker := &LinearLinker{Shards: 4, Lambda: 1, Variant: HydraM}
	if err := linker.Fit(sys, task); err != nil {
		t.Fatal(err)
	}
	m := linker.Model()
	if m == nil || len(m.W) == 0 {
		t.Fatal("no model")
	}
	if m.Diag.Iters == 0 {
		t.Fatal("ADMM did not iterate")
	}
	conf, err := EvaluateLinker(sys, linker, task.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	if conf.F1() < 0.5 {
		t.Fatalf("linear ADMM model F1 = %v: %s", conf.F1(), conf)
	}
}

func TestLinearLinkerShardInvariance(t *testing.T) {
	_, sys := buildSystem(t, 40, platform.EnglishPlatforms, 12)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(12))
	fit := func(shards int) *LinearModel {
		l := &LinearLinker{Shards: shards, Lambda: 1}
		if err := l.Fit(sys, task); err != nil {
			t.Fatal(err)
		}
		return l.Model()
	}
	m1 := fit(1)
	m5 := fit(5)
	// ADMM converges linearly; within the iteration budget the consensus
	// solutions must agree to a few percent relative error.
	if m1.W.Sub(m5.W).Norm() > 0.08*(1+m1.W.Norm()) {
		t.Fatalf("consensus depends on shard count: Δ=%v", m1.W.Sub(m5.W).Norm())
	}
}

func TestLinearLinkerValidation(t *testing.T) {
	l := &LinearLinker{}
	if _, err := l.PairScore(platform.Twitter, 0, platform.Facebook, 0); err == nil {
		t.Fatal("expected unfitted error")
	}
	if err := l.Fit(nil, &Task{}); err == nil {
		t.Fatal("expected no-labels error")
	}
	if l.Name() == "" {
		t.Fatal("empty name")
	}
}

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
