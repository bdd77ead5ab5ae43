package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden")

// timeColumn is a table row's last column, the wall-clock time(s).
var timeColumn = regexp.MustCompile(` +\S+$`)

// untimed drops the time(s) column from a figure's table: the only column
// that differs between runs.
func untimed(table string) string {
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "== ") && !strings.HasPrefix(l, "note: ") {
			lines[i] = timeColumn.ReplaceAllString(l, "")
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestFiguresMatchGoldenAtAnyWorkers runs every figure of the suite, in
// Figures order, at one worker and at four, and holds both to the same
// checked-in tables: every series, x, precision, recall and note, byte for
// byte. The golden is hydra-bench -scale 0.25 -seed 7 without its timings;
// rewrite it after an intended change with
//
//	go test ./internal/experiments/ -run Golden -update
func TestFiguresMatchGoldenAtAnyWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("two full figure suites")
	}
	path := filepath.Join("testdata", "figures.golden")
	for _, workers := range []int{1, 4} {
		var got strings.Builder
		for _, f := range Figures {
			res, err := f.Run(Config{Scale: 0.25, Seed: 7, Workers: workers})
			if err != nil {
				t.Fatalf("%s at %d workers: %v", f.Key, workers, err)
			}
			got.WriteString(untimed(res.Format()))
		}
		if *update && workers == 1 {
			if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%d workers: line %d is\n  %s\nwant\n  %s", workers, i+1, gotLines[i], wantLines[i])
			}
		}
		if len(gotLines) != len(wantLines) {
			t.Fatalf("%d workers: %d lines, want %d", workers, len(gotLines), len(wantLines))
		}
	}
}

// sameAtOneAndFourWorkers runs one driver at one worker and at four and
// holds the two untimed tables equal, at a seed the golden does not use.
func sameAtOneAndFourWorkers(t *testing.T, name string, run func(Config) (*Result, error), seed int64) {
	t.Helper()
	var tables [2]string
	for i, workers := range []int{1, 4} {
		res, err := run(Config{Scale: 0.25, Seed: seed, Workers: workers})
		if err != nil {
			t.Fatalf("%s at %d workers: %v", name, workers, err)
		}
		tables[i] = untimed(res.Format())
	}
	if tables[0] != tables[1] {
		t.Fatalf("%s differs between 1 and 4 workers:\n1 worker:\n%s\n4 workers:\n%s", name, tables[0], tables[1])
	}
}

// TestFigureWorkersDeterminism asserts that a parallel Figure 10 sweep
// produces the same figure as the sequential one.
func TestFigureWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure run")
	}
	sameAtOneAndFourWorkers(t, "Figure 10", Figure10, 3)
}

// TestAblationWorkersDeterminism asserts the same of the structure
// ablation's (fraction × mode) grid and the pooling ablation's system build.
func TestAblationWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full ablation run")
	}
	sameAtOneAndFourWorkers(t, "structure ablation", AblationStructure, 5)
	sameAtOneAndFourWorkers(t, "pooling ablation", AblationPooling, 5)
}

// tinyCfg shrinks worlds to the minimum the drivers support.
func tinyCfg() Config { return Config{Scale: 0.35, Seed: 7} }

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("gamma sweep is slow")
	}
	res, err := Figure8(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"p=1", "p=2", "p=3", "p=4"} {
		s := res.SeriesByName(p)
		if s == nil || len(s.X) != 25 {
			t.Fatalf("series %s incomplete", p)
		}
		// The plateau must exist: at least half the cells above 0.8
		// precision.
		good := 0
		for _, prec := range s.Precision {
			if prec > 0.8 {
				good++
			}
		}
		if good < len(s.Precision)/2 {
			t.Fatalf("%s: only %d/%d good cells", p, good, len(s.Precision))
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("labeled sweep is slow")
	}
	res, err := Figure9(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"english", "chinese"} {
		hydra := res.SeriesByName(ds + "/HYDRA-M")
		if hydra == nil || len(hydra.X) != 5 {
			t.Fatalf("%s HYDRA series incomplete", ds)
		}
		// HYDRA must dominate every baseline on mean F1.
		for _, base := range []string{"/MOBIUS", "/Alias-Disamb", "/SMaSh"} {
			bs := res.SeriesByName(ds + base)
			if bs == nil {
				continue
			}
			if bs.MeanF1() > hydra.MeanF1()+0.02 {
				t.Fatalf("%s%s (%v) beats HYDRA (%v)", ds, base, bs.MeanF1(), hydra.MeanF1())
			}
		}
	}
	// English ≥ Chinese for HYDRA (the paper's dataset-difficulty ordering).
	en := res.SeriesByName("english/HYDRA-M")
	zh := res.SeriesByName("chinese/HYDRA-M")
	if en.MeanF1() < zh.MeanF1()-0.05 {
		t.Fatalf("English (%v) should not trail Chinese (%v)", en.MeanF1(), zh.MeanF1())
	}
}

func TestFigure11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("unlabeled sweep is slow")
	}
	res, err := Figure11(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	hydra := res.SeriesByName("english/HYDRA-M")
	if hydra == nil || len(hydra.X) != 5 {
		t.Fatal("HYDRA series incomplete")
	}
	// Recall must grow with the unlabeled pool (structure propagation).
	if hydra.Recall[len(hydra.Recall)-1] <= hydra.Recall[0] {
		t.Fatalf("HYDRA recall did not grow with unlabeled data: %v", hydra.Recall)
	}
}

func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("community sweep is slow")
	}
	res, err := Figure12(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"english", "chinese"} {
		s := res.SeriesByName(ds + "/HYDRA-M")
		if s == nil || len(s.X) < 3 {
			t.Fatalf("%s community series incomplete", ds)
		}
		// Adding all communities must beat the eval-only baseline on recall.
		if s.Recall[len(s.Recall)-1] <= s.Recall[0] {
			t.Fatalf("%s: communities did not help: %v", ds, s.Recall)
		}
	}
}

func TestFigure13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-platform run is slow")
	}
	res, err := Figure13(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	hydra := res.SeriesByName("HYDRA-M")
	if hydra == nil {
		t.Fatal("no HYDRA series")
	}
	for _, base := range []string{"MOBIUS", "Alias-Disamb", "SMaSh"} {
		bs := res.SeriesByName(base)
		if bs != nil && bs.MeanF1() > hydra.MeanF1()+0.02 {
			t.Fatalf("%s (%v) beats HYDRA (%v) cross-culture", base, bs.MeanF1(), hydra.MeanF1())
		}
	}
}

func TestFigure14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("efficiency sweep is slow")
	}
	res, err := Figure14(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	hydra := res.SeriesByName("english/HYDRA-M")
	smash := res.SeriesByName("english/SMaSh")
	if hydra == nil || smash == nil {
		t.Fatal("missing series")
	}
	// SMaSh (set intersections) must be cheaper than HYDRA (dense dual).
	var hSum, sSum float64
	for i := range hydra.TimeSec {
		hSum += hydra.TimeSec[i]
	}
	for i := range smash.TimeSec {
		sSum += smash.TimeSec[i]
	}
	if sSum >= hSum {
		t.Fatalf("SMaSh (%vs) should be cheaper than HYDRA (%vs)", sSum, hSum)
	}
}

func TestAblationPoolingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	res, err := AblationPooling(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.SeriesByName("lq-pool") == nil || res.SeriesByName("mean-pool") == nil {
		t.Fatal("pooling ablation series missing")
	}
}

func TestAblationMultiScaleRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	res, err := AblationMultiScale(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	ms := res.SeriesByName("multi-scale")
	ss := res.SeriesByName("single-scale")
	if ms == nil || ss == nil {
		t.Fatal("multi-scale ablation series missing")
	}
}

func TestAblationTopicKernelRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	res, err := AblationTopicKernel(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.SeriesByName("chi-square") == nil || res.SeriesByName("hist-intersect") == nil {
		t.Fatal("kernel ablation series missing")
	}
}
