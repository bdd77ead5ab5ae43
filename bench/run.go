package main

// One run of one workload: build the bundle, stand the system up, drive
// the timed window, verify every answer, report.

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hydra/internal/pipeline"
	"hydra/internal/serve"
)

type runCfg struct {
	workload string
	seed     int64 // drives query streams, pools and samples
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string // span files and per-run scratch
	// corruptOracle flips one expected answer before verification: the
	// self-test that shows the oracle comparison is live.
	corruptOracle bool
}

// result is a run's outcome in the shape the contract's last line wants.
type result struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	notes     []string
}

func (c runCfg) spec() workloadSpec {
	for _, w := range workloads {
		if w.Name == c.workload {
			return w
		}
	}
	return workloadSpec{}
}

// runWorkload does one run in a scratch directory of its own, removed
// when the run ends.
func runWorkload(cfg runCfg) (*result, error) {
	if cfg.spec().Name == "" {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.workload == wlTrainPack {
		return runTrainPack(cfg, filepath.Join(dir, "bundle.bin"))
	}
	bundle, built, err := sharedBundle(cfg)
	if err != nil {
		return nil, err
	}
	return runServing(cfg, dir, bundle, built)
}

// sharedBundle is the trained bundle the serving workloads serve, with the
// report of the cycle that wrote it. The world is fixed and training is
// deterministic (train-pack checks that every cycle writes the same
// bytes), so the bundle is a function of the program alone: it is trained
// once per build of this binary and kept under the work directory, named
// by the binary's hash, the way a compiler's output is. Training time is
// train-pack's to measure; a serving run that retrained would only spend
// the driver's time budget. Runs are sequential, so nothing locks it.
func sharedBundle(cfg runCfg) (string, *buildReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	_, exeSum, err := fileIdentity(exe)
	if err != nil {
		return "", nil, err
	}
	dir := filepath.Join(cfg.outDir, "bundle")
	base := filepath.Join(dir, fmt.Sprintf("%s-p%d-k%d", exeSum[:16], cfg.sz.Persons, cfg.sz.IndexK))
	if raw, err := os.ReadFile(base + ".json"); err == nil {
		rep := &buildReport{}
		if err := json.Unmarshal(raw, rep); err == nil {
			if _, sum, err := fileIdentity(base + ".bin"); err == nil && sum == rep.SHA256 {
				return base + ".bin", rep, nil
			}
		}
	}
	// None, or a torn one: drop what other builds left and train. The
	// report is written last, so a run killed half-way leaves no entry.
	if err := os.RemoveAll(dir); err != nil {
		return "", nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	rep, err := buildBundle(cfg.sz.Persons, cfg.sz.IndexK, base+".bin", false)
	if err != nil {
		return "", nil, err
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return "", nil, err
	}
	if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
		return "", nil, err
	}
	return base + ".bin", rep, nil
}

// runTrainPack times training cycles, one fresh child each, until the
// window is used up, and never fewer than two, so that a cycle about as
// long as the window does not make the count flip between runs. An
// operation is a cycle, so the latency metrics are cycle times; its checks
// are the saved bundle's answers against the oracle for every account, and
// that every cycle wrote the same bytes.
func runTrainPack(cfg runCfg, path string) (*result, error) {
	res := &result{Metrics: map[string]float64{}}
	var reps []*buildReport
	var cycleNs []int64
	var synthS, rssMB []float64
	var busy float64
	for busy < cfg.seconds || len(reps) < 2 {
		rep, err := buildBundle(cfg.sz.Persons, cfg.sz.IndexK, path, cfg.trace && len(reps) == 0)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		cycleNs = append(cycleNs, int64(rep.TrainS*1e9))
		synthS, rssMB = append(synthS, rep.SynthS), append(rssMB, rep.RSSPeakMB)
		busy += rep.TrainS
		if cfg.trace {
			break
		}
	}
	first := reps[0]
	bad := 0
	for _, rep := range reps {
		res.Attempted++
		if rep.SHA256 != first.SHA256 {
			bad++
			res.notes = append(res.notes, fmt.Sprintf("cycle wrote %s, first cycle %s", rep.SHA256, first.SHA256))
		}
	}

	colds, err := coldStarts(path, cfg.sz.ColdStarts, cfg.sz.Persons)
	if err != nil {
		return nil, err
	}
	b, err := pipeline.LoadBundle(path)
	if err != nil {
		return nil, err
	}
	or, err := newOracle(b)
	if err != nil {
		return nil, err
	}
	fast, err := serve.NewEngineFromBundle(b, 0)
	if err != nil {
		return nil, err
	}
	na := fast.NumAccounts(platA)
	for a := 0; a < na; a++ {
		got, err := fast.TopK(platA, a, platB, topK)
		if err != nil {
			return nil, err
		}
		if cfg.corruptOracle && a == 0 {
			corrupt(or, 0)
		}
		want, err := or.wantTopK(a)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if !sameTopK(got, want) {
			bad++
			res.notes = append(res.notes, fmt.Sprintf("packed bundle's top-k of %d is %v, oracle %v", a, got, want))
		}
	}
	coldBad, err := checkColdStarts(colds, or)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(colds)
	res.Failed = bad + coldBad

	lat := newLatencies(cycleNs)
	fmt.Fprintf(os.Stderr, "%s: cycles %s\n", cfg.workload, lat)
	if cfg.trace {
		maps.Copy(res.Metrics, first.Stages)
		maps.Copy(res.Metrics, first.Layers)
		maps.Copy(res.Metrics, first.Runtime)
		res.Metrics["pipeline.train_s"] = first.TrainS
		res.Metrics["synth.generate_s"] = first.SynthS
		res.Metrics["core.support_vectors"] = float64(first.SupportVectors)
		res.Metrics["bench.samples"] = float64(len(reps))
		return res, nil
	}
	m := res.Metrics
	m["setup_s"] = median(synthS)
	m["f1"] = first.F1
	m["bundle_mb"] = float64(first.Bytes) / 1e6
	m["cold_start_ms"] = medianColdStart(colds)
	m["throughput_rps"] = float64(len(reps)) / busy
	m["p50_ms"] = lat.median()
	m["p90_ms"], _ = lat.ms(0.9)
	m["rss_peak_mb"] = median(rssMB)
	return res, nil
}

// corrupt flips the lowest mantissa bit of the oracle's best score for
// account a, which any bit-for-bit comparison must notice.
func corrupt(or *oracle, a int) {
	want, err := or.wantTopK(a)
	if err != nil || len(want) == 0 {
		return
	}
	want[0].Score = flipLowBit(want[0].Score)
}

// runServing is the four serving workloads, over the bundle at basePath
// that the cycle reported in built wrote; dir takes what the run writes.
func runServing(cfg runCfg, dir, basePath string, built *buildReport) (*result, error) {
	res := &result{Metrics: map[string]float64{}}
	var s *served
	var front *timedHandler
	var l *listener
	// Set-up is seconds of single-shot work (a 317 MB file written, a pool
	// executed) and one stalled write would be the whole metric, so the run
	// stands its system up several times, keeps the last and reports the
	// median.
	var setupS []float64
	for len(setupS) < cfg.sz.SetUps {
		if s != nil {
			l.close()
			s.close()
			runtime.GC() // the discarded system must not count towards rss_peak_mb
		}
		start := time.Now()
		var err error
		if s, err = setUp(cfg, dir, basePath); err != nil {
			return nil, err
		}
		front = &timedHandler{next: s.front, on: cfg.trace}
		if l, err = listen(front.handler()); err != nil {
			s.close()
			return nil, err
		}
		setupS = append(setupS, since(start))
	}
	defer s.close()
	defer l.close()

	info, err := os.Stat(s.path)
	if err != nil {
		return nil, err
	}

	var samples []sample
	var elapsed time.Duration
	var layers map[string]float64
	if cfg.trace {
		layers, samples, err = traceServing(cfg, s, basePath, l, front)
		if err != nil {
			return nil, err
		}
	} else {
		window := time.Duration(cfg.seconds * float64(time.Second))
		samples, elapsed = closedLoop(l.url, s.traffic, cfg.seed, clients, window, 0)
	}
	// Read before the oracle below allocates anything of its own.
	rssPeak := rssPeakMB()
	rt := runtimeMetrics()

	// The served file's cold start, in fresh children. After the window,
	// so the children never compete with it for the two cores.
	na := s.engines[0].NumAccounts(platA)
	colds, err := coldStarts(s.path, cfg.sz.ColdStarts, na)
	if err != nil {
		return nil, err
	}

	// The oracle's bundle. The warm workloads decode the served file with
	// the reader the mapped engine does not use; the tiled bundle is built
	// again in memory, where it shares the base's numerics, and so never
	// goes through the file at all.
	var ob *pipeline.Bundle
	v := &verifier{gen: s.gen}
	if cfg.workload == wlTopKCold {
		if ob, err = tileBundle(basePath, cfg.sz.ColdPerPlat, cfg.sz.ColdCands); err != nil {
			return nil, err
		}
		rows := ob.Indexes[0].ByA
		v.structural = func(a int, got []serve.Scored) bool { return wellFormedTopK(rows[a], got) }
		v.replay = seededSubset(cfg.seed, cfg.sz.ReplayEvery)
	} else {
		t := time.Now()
		if ob, err = pipeline.LoadBundle(basePath); err != nil {
			return nil, err
		}
		s.extra["pipeline.load_decoded_ms"] = since(t) * 1e3
	}
	or, err := newOracle(ob)
	if err != nil {
		return nil, err
	}
	v.oracle = or
	if s.pool != nil {
		if err := or.scorePool(s.pool); err != nil {
			return nil, err
		}
	}
	if cfg.corruptOracle && len(samples) > 0 {
		first := samples[0].req
		if first.kind == kindTopK {
			corrupt(or, first.key)
			if v.replay != nil {
				v.replay = func(int) bool { return true }
			}
		} else {
			or.pool[first.key] = flipLowBit(or.pool[first.key])
		}
	}
	res.Attempted = len(samples)
	var notes []string
	if res.Failed, notes, err = v.failures(samples); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, notes...)
	coldBad, err := checkColdStarts(colds, or)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(colds)
	res.Failed += coldBad

	// Whole-window numbers over the verified-correct answers: a stall that
	// hits only part of the window still costs throughput and still lands
	// in the tail.
	right := newLatencies(sampleNs(samples, func(s sample) bool { return !s.wrong }))
	fmt.Fprintf(os.Stderr, "%s: %s\n", cfg.workload, right)
	if cfg.workload == wlScorePool {
		for _, k := range []reqKind{kindScore, kindScoreBatch} {
			fmt.Fprintf(os.Stderr, "%s: %-11s %s\n", cfg.workload, k, newLatencies(sampleNs(samples, func(s sample) bool { return !s.wrong && s.req.kind == k })))
		}
	}

	m := res.Metrics
	if cfg.trace {
		maps.Copy(m, s.extra)
		maps.Copy(m, rt)
		maps.Copy(m, layers)
		return res, nil
	}
	m["setup_s"] = median(setupS)
	m["f1"] = built.F1
	m["bundle_mb"] = float64(info.Size()) / 1e6
	m["cold_start_ms"] = medianColdStart(colds)
	m["throughput_rps"] = float64(len(right.sorted)) / elapsed.Seconds()
	m["p50_ms"] = right.median()
	var supported bool
	if m["p90_ms"], supported = right.ms(0.9); !supported {
		fmt.Fprintf(os.Stderr, "%s: only %d samples: p90_ms has fewer than ten samples beyond it\n", cfg.workload, len(right.sorted))
	}
	m["rss_peak_mb"] = rssPeak
	return res, nil
}

// coldReport is what a cold-start child prints.
type coldReport struct {
	Ms      float64        `json:"ms"`
	A       int            `json:"a"`
	Results []serve.Scored `json:"results"`
}

// runColdChild is `-child cold`: bundle file to first top-k answer.
func runColdChild(path string, a int) (*coldReport, error) {
	start := time.Now()
	_, eng, err := openMapped(path)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	got, err := eng.TopK(platA, a, platB, topK)
	if err != nil {
		return nil, err
	}
	return &coldReport{Ms: since(start) * 1e3, A: a, Results: got}, nil
}

// coldStarts measures n fresh children, each answering for a different
// account. The first answer of a cold engine computes its account's
// candidate pairs live, and accounts differ in how many they have (single
// children read 27-50 ms on one bundle), so the accounts are the same
// evenly spaced ones on every run: drawn from the seed, they would make
// cold_start_ms differ between seeds by which accounts were drawn.
func coldStarts(path string, n, na int) ([]coldReport, error) {
	out := make([]coldReport, n)
	for i := range out {
		a := i * na / n
		if err := runChild(&out[i], "-child", "cold", "-bundle", path, "-a", strconv.Itoa(a)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func medianColdStart(colds []coldReport) float64 {
	ms := make([]float64, len(colds))
	for i, c := range colds {
		ms[i] = c.Ms
	}
	return median(ms)
}

// median of a non-empty set; the mean of the middle two when even.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func checkColdStarts(colds []coldReport, or *oracle) (int, error) {
	bad := 0
	for _, c := range colds {
		want, err := or.wantTopK(c.A)
		if err != nil {
			return 0, err
		}
		if !sameTopK(c.Results, want) {
			bad++
		}
	}
	return bad, nil
}

// rssPeakMB is the process's resident high-water mark.
func rssPeakMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeMetrics snapshots the Go runtime's GC counters for the process.
func runtimeMetrics() map[string]float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]float64{
		"runtime.gc_pause_total_ms": float64(ms.PauseTotalNs) / 1e6,
		"runtime.gc_cycles":         float64(ms.NumGC),
		"runtime.heap_alloc_mb":     float64(ms.HeapAlloc) / (1 << 20),
		"runtime.gc_cpu_fraction":   ms.GCCPUFraction,
	}
}
