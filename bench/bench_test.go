package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

// workDir is the tests' bench/out. They share it, as the runs of a set
// do, so the quick world is trained once for all the serving runs: a
// training cycle is most of what a quick run costs.
var workDir string

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes itself for its children, always with -child as the
// first argument, which no `go test` invocation has.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	runtime.GOMAXPROCS(maxProcs())
	var err error
	if workDir, err = os.MkdirTemp("", "hydra-bench-test-"); err != nil {
		fatal(err)
	}
	code := m.Run()
	os.RemoveAll(workDir)
	os.Exit(code)
}

func quickCfg(workload string, trace bool) runCfg {
	return runCfg{workload: workload, seed: 1, seconds: quickSizes.Seconds, trace: trace, sz: quickSizes, outDir: workDir}
}

func runQuick(t *testing.T, cfg runCfg) *result {
	t.Helper()
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", cfg.workload, cfg.trace, err)
	}
	return res
}

// TestBenchmarkJSONMatchesSpec holds the contract file at the repository
// root to the program's tables and to the contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the program's tables; regenerate it with: bash bench/run.sh -emit-spec > BENCHMARK.json")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(onDisk))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", n, u)
		}
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range endToEnd {
		check(e.Name, e.Unit)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
		if e.def == "" {
			t.Errorf("%s has no definition", e.Name)
		}
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
	for _, l := range perLayer {
		check(l.Name, l.Unit)
		if l.moves == "" {
			t.Errorf("%s does not say which end-to-end metric it should move", l.Name)
		}
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
}

// TestQuickSet runs every workload end to end at the quick sizes, untraced
// and traced: every answer must verify, every end-to-end metric must be
// measured on every workload, and every declared per-layer metric on at
// least one.
func TestQuickSet(t *testing.T) {
	measured := map[string]bool{}
	for _, w := range workloads {
		res := runQuick(t, quickCfg(w.Name, false))
		out := res.outcome(false)
		if !out.Correct {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, out.Failed, out.Attempted, res.notes)
		}
		if len(out.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json declares %d", w.Name, len(out.Metrics), len(endToEnd))
		}
		for _, e := range endToEnd {
			if v := out.Metrics[e.Name]; !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != e.Unit {
				t.Errorf("%s: %s = %v %q, want a positive number in %s", w.Name, e.Name, v.Value, v.Unit, e.Unit)
			}
		}

		cfg := quickCfg(w.Name, true)
		res = runQuick(t, cfg)
		out = res.outcome(true)
		if !out.Correct {
			t.Errorf("%s traced: %d of %d operations failed: %v", w.Name, out.Failed, out.Attempted, res.notes)
		}
		if len(out.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d per-layer metrics, BENCHMARK.json declares %d", w.Name, len(out.Metrics), len(perLayer))
		}
		for name, v := range out.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s traced: %s = %v", w.Name, name, v.Value)
			}
			measured[name] = measured[name] || v.Value != 0
		}
		if w.Name != wlTrainPack {
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("%s traced: no span file: %v", w.Name, err)
			}
		}
	}
	// Counters of faults that a healthy run never sees stay 0 everywhere,
	// and no quick window is long enough to support a p99.
	quiet := map[string]bool{"router.retry_exhausted": true, "router.breaker_opens": true, "router.degraded_ratio": true,
		"router.hedge_fired_ratio": true, "router.hedge_won_ratio": true, "bench.p99_ms": true}
	for _, l := range perLayer {
		if !measured[l.Name] && !quiet[l.Name] {
			t.Errorf("per-layer metric %s read 0 on every workload: nothing measures it", l.Name)
		}
	}
}

// TestStageTimesSumToTrainS: the stage timers account for the whole cycle.
func TestStageTimesSumToTrainS(t *testing.T) {
	_, rep, err := sharedBundle(quickCfg(wlTopKWide, false))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range rep.Stages {
		sum += s
	}
	if math.Abs(sum-rep.TrainS) > 0.02*rep.TrainS {
		t.Errorf("pipeline stage times sum to %.4fs, train_s is %.4fs", sum, rep.TrainS)
	}
}

// TestCorruptedOracleFailsTheRun shows the oracle comparison is live: one
// flipped mantissa bit in one expected answer and the run is not correct.
// The four workloads are the four ways an answer is checked: every account
// of a packed bundle, warm top-k, pool scores, and the cold replay sample.
func TestCorruptedOracleFailsTheRun(t *testing.T) {
	for _, w := range []string{wlTrainPack, wlTopKWide, wlScorePool, wlTopKCold} {
		cfg := quickCfg(w, false)
		cfg.corruptOracle = true
		res := runQuick(t, cfg)
		if res.Failed == 0 || res.outcome(false).Correct {
			t.Errorf("%s: a corrupted expected answer went unnoticed (%d attempted, %d failed)", w, res.Attempted, res.Failed)
		}
	}
}

// TestSetsAgreeWithinBound: the -repeat comparison counts a difference in
// either direction, and an unmeasured (zero) or NaN reading as a breach.
func TestSetsAgreeWithinBound(t *testing.T) {
	lower := e2eSpec{Better: "lower", Bound: 0.25}
	higher := e2eSpec{Better: "higher", Bound: 0.25}
	for _, c := range []struct {
		e    e2eSpec
		a, b float64
		want bool
	}{
		{lower, 100, 120, true}, {lower, 100, 130, false}, {lower, 100, 70, false},
		{higher, 100, 80, true}, {higher, 100, 70, false},
		{lower, 0, 5, false}, {lower, 0, 0, false}, {lower, math.NaN(), 1, false}, {lower, 1, math.NaN(), false},
	} {
		if got := c.e.agree(c.a, c.b); got != c.want {
			t.Errorf("%s is better, bound %v: agree(%v, %v) = %v, want %v", c.e.Better, c.e.Bound, c.a, c.b, got, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(i+1) * 1e6
	}
	l := newLatencies(ns)
	if v, ok := l.ms(0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 ms = %v supported %v, want 990 true", v, ok)
	}
	if _, ok := newLatencies(ns[:999]).ms(0.99); ok {
		t.Error("p99 of 999 samples has nine samples beyond it and must read unsupported")
	}
	if v, _ := l.ms(1); v != 1000 {
		t.Errorf("p100 = %v, want the maximum", v)
	}
}
