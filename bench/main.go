// Command bench is the repository's benchmark: five workloads over one
// synthetic world, every answer verified against an exact oracle, eight
// end-to-end metrics per workload and, in a traced run, a per-layer table.
// See README.md; BENCHMARK.json at the repository root declares it.
//
//	bash bench/run.sh --workload topk-wide --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                 # every workload, one set
//	bash bench/run.sh -repeat 6      # six sets; the halves' medians checked against the bounds
//	bash bench/run.sh -quick          # the seconds-long smoke the test runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs all five, each in a child process")
		seed     = flag.Int64("seed", 1, "seed of the query streams, pools and samples")
		seconds  = flag.Float64("seconds", 0, "timed window in seconds (default: BENCHMARK.json's run_seconds, or 0.1 with -quick)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json instead of end-to-end metrics")
		quick    = flag.Bool("quick", false, "small world and short windows: a smoke of the harness, not a measurement")
		repeat   = flag.Int("repeat", 1, "with no -workload: run this many sets and fail if the medians of the first and the second half of them disagree by more than a metric's bound")
		emitSpec = flag.Bool("emit-spec", false, "print BENCHMARK.json as generated from the program's tables and exit")

		child   = flag.String("child", "", "internal: build | cold | tile")
		bundle  = flag.String("bundle", "", "internal: bundle path of a child")
		persons = flag.Int("persons", 0, "internal: world size of a build child")
		indexK  = flag.Int("index-k", 0, "internal: index width of a build child")
		account = flag.Int("a", 0, "internal: account a cold child asks for")
		tileOut = flag.String("tile-out", "", "internal: where a tile child saves")
		tileN   = flag.Int("tile-n", 0, "internal: accounts per platform of a tile child")
		tileC   = flag.Int("tile-cands", 0, "internal: candidates per account of a tile child")
	)
	flag.Parse()
	if *emitSpec {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal(fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs present: generator and server would time-share", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	runtime.GOMAXPROCS(maxProcs())

	switch *child {
	case "build":
		if err := runBuildChild(*persons, *indexK, *bundle, *trace == 1); err != nil {
			fatal(err)
		}
		return
	case "cold":
		rep, err := runColdChild(*bundle, *account)
		if err != nil {
			fatal(err)
		}
		json.NewEncoder(os.Stdout).Encode(rep)
		return
	case "tile":
		rep, err := runTileChild(*bundle, *tileOut, *tileN, *tileC)
		if err != nil {
			fatal(err)
		}
		json.NewEncoder(os.Stdout).Encode(rep)
		return
	case "":
	default:
		fatal(fmt.Errorf("unknown -child %q", *child))
	}

	cfg := runCfg{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sz: fullSizes, outDir: filepath.Join("bench", "out")}
	if *quick {
		cfg.sz = quickSizes
	}
	if cfg.seconds <= 0 {
		cfg.seconds = cfg.sz.Seconds
	}
	env, _ := json.Marshal(stamp(cfg))
	fmt.Fprintf(os.Stderr, "env: %s\n", env)

	if *workload == "" {
		if err := runSets(cfg, *quick, *repeat); err != nil {
			fatal(err)
		}
		return
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	out := res.outcome(cfg.trace)
	printMetrics(os.Stderr, cfg.workload, out)
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "FAILED:", n)
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// envStamp records what a result was measured on.
type envStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	WorldSeed  int64   `json:"world_seed"`
	Seconds    float64 `json:"seconds"`
	Sizes      sizes   `json:"sizes"`
}

func stamp(cfg runCfg) envStamp {
	commit := "unknown" // the driver's checkout is not a git repository
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envStamp{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: maxProcs(),
		Clients: clients, Seed: cfg.seed, WorldSeed: worldSeed, Seconds: cfg.seconds, Sizes: cfg.sz}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a run prints: the contract's four keys.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome selects the declared metrics of the run's kind: every
// end-to-end metric, or every per-layer metric, a layer the workload
// never calls reading 0.
func (r *result) outcome(trace bool) outcome {
	out := outcome{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if trace {
		for _, l := range perLayer {
			out.Metrics[l.Name] = metricValue{r.Metrics[l.Name], l.Unit}
		}
		return out
	}
	for _, e := range endToEnd {
		out.Metrics[e.Name] = metricValue{r.Metrics[e.Name], e.Unit}
	}
	return out
}

func printMetrics(w *os.File, workload string, out outcome) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: attempted %d, failed %d\n", workload, out.Attempted, out.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
}

// runSets runs repeat sets: every workload once, each in a child process
// of its own so that its memory and GC state are its own, set i with seed
// seed+i. With two sets or more it then does what the driver does to
// accept a benchmark: it splits the sets into a first and a second half,
// takes each metric's median over either half, and fails if the halves
// disagree by more than the metric's bound. -repeat 2 compares two single
// runs; on a noisy host -repeat 6 or more is the fair test.
func runSets(cfg runCfg, quick bool, repeat int) error {
	var sets []map[string]outcome
	for i := 0; i < repeat; i++ {
		set := map[string]outcome{}
		for _, w := range workloads {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", boolFlag(cfg.trace)}
			if quick {
				args = append(args, "-quick")
			}
			var out outcome
			if err := runChild(&out, args...); err != nil {
				return err
			}
			line, _ := json.Marshal(out)
			fmt.Printf("%s %s\n", w.Name, line)
			if !out.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.Name, out.Failed, out.Attempted)
			}
			set[w.Name] = out
		}
		sets = append(sets, set)
	}
	if cfg.trace || len(sets) < 2 {
		return nil
	}
	half := len(sets) / 2
	halfMedian := func(sets []map[string]outcome, workload, metric string) float64 {
		var vs []float64
		for _, set := range sets {
			vs = append(vs, set[workload].Metrics[metric].Value)
		}
		return median(vs)
	}
	breaches := 0
	for _, w := range workloads {
		for _, e := range endToEnd {
			a, b := halfMedian(sets[:half], w.Name, e.Name), halfMedian(sets[half:], w.Name, e.Name)
			verdict := "ok"
			if !e.agree(a, b) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%-13s %-15s first %12.4f  second %12.4f  worse by %+7.2f%%  bound %5.1f%%  %s\n",
				w.Name, e.Name, a, b, e.worseBy(a, b)*100, e.Bound*100, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d (workload, metric) pairs differ between the halves by more than their bound", breaches)
	}
	return nil
}
