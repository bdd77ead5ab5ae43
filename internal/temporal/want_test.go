package temporal

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"hydra/internal/linalg"
)

// wantSets lists the selectors the want tests run over n entries laid
// out group-major in groups of size per (family × scale, or sensor ×
// window): empty, then each single entry (sets[1:n+1]), each column —
// one scale, or one window, across every group — and seeded random
// masks.
func wantSets(rng *rand.Rand, groups, per int) [][]bool {
	n := groups * per
	sets := [][]bool{make([]bool, n)}
	for i := 0; i < n; i++ {
		w := make([]bool, n)
		w[i] = true
		sets = append(sets, w)
	}
	for c := 0; c < per; c++ {
		w := make([]bool, n)
		for g := 0; g < groups; g++ {
			w[g*per+c] = true
		}
		sets = append(sets, w)
	}
	for k := 0; k < 20; k++ {
		w := make([]bool, n)
		for i := range w {
			w[i] = rng.Intn(2) == 0
		}
		sets = append(sets, w)
	}
	return sets
}

// randomTimeline draws n observations over 60 days with a random
// distribution per observation in each of fams families.
func randomTimeline(rng *rand.Rand, r Range, scales []int, n, fams int) (Timeline, [][]linalg.Vector) {
	times := make([]time.Time, n)
	dists := make([][]linalg.Vector, fams)
	for i := range times {
		times[i] = r.Start.Add(time.Duration(rng.Int63n(int64(r.Duration()))))
	}
	for f := range dists {
		dists[f] = make([]linalg.Vector, n)
		for i := range dists[f] {
			dists[f][i] = linalg.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		}
	}
	return NewTimeline(r, scales, times), dists
}

// TestSimilarityIntoWantSkipsScales: under any selector, a selected entry
// of SimilarityInto carries the bits and mask of a full call and an
// unselected one comes back zero and missing, and the similarity is
// evaluated for selected entries only — each single-entry selector's
// evaluations are that entry's share of the full call's.
func TestSimilarityIntoWantSkipsScales(t *testing.T) {
	r := Range{Start: t0, End: t0.Add(60 * Day)}
	scales := []int{1, 2, 4, 8, 16, 32}
	rng := rand.New(rand.NewSource(41))
	calls := 0
	counting := func(a, b linalg.Vector) float64 { calls++; return dot(a, b) }
	for trial := 0; trial < 20; trial++ {
		a, famsA := randomTimeline(rng, r, scales, 1+rng.Intn(30), 3)
		b, famsB := randomTimeline(rng, r, scales, 1+rng.Intn(30), 3)
		famsB[2] = famsB[2][:len(famsB[2])-1] // one family unusable: never observed
		n := 3 * len(scales)
		full, fullMask := make([]float64, n), make([]bool, n)
		calls = 0
		a.SimilarityInto(&b, famsA, famsB, counting, full, fullMask, nil)
		fullCalls := calls
		singles := 0
		for k, want := range wantSets(rng, 3, len(scales)) {
			x, mask := make([]float64, n), make([]bool, n)
			for i := range x {
				x[i], mask[i] = math.NaN(), true
			}
			calls = 0
			a.SimilarityInto(&b, famsA, famsB, counting, x, mask, want)
			usable := 0
			for i := range want {
				if !want[i] {
					if x[i] != 0 || mask[i] {
						t.Fatalf("trial %d: unselected entry %d = %v/%v, want 0/false", trial, i, x[i], mask[i])
					}
					continue
				}
				if math.Float64bits(x[i]) != math.Float64bits(full[i]) || mask[i] != fullMask[i] {
					t.Fatalf("trial %d: entry %d = %v/%v, full call %v/%v", trial, i, x[i], mask[i], full[i], fullMask[i])
				}
				if i/len(scales) < 2 {
					usable++
				}
			}
			if usable == 0 && calls != 0 {
				t.Fatalf("trial %d: %d similarity calls for a selector of no usable entry", trial, calls)
			}
			if k >= 1 && k <= n {
				singles += calls
			}
		}
		// Each single-entry selector evaluates its own entry's buckets
		// only, so together they make exactly the full call's evaluations.
		if singles != fullCalls {
			t.Fatalf("trial %d: single-entry selectors made %d similarity calls, the full call %d", trial, singles, fullCalls)
		}
	}
}

// countingSensor counts its stimulations.
type countingSensor struct {
	Sensor
	n *int
}

func (s countingSensor) stimulate(ea, eb Stream) float64 {
	*s.n++
	return s.Sensor.stimulate(ea, eb)
}

// TestMatchIntoWantSkipsWindows: under any selector, a selected entry of
// MatchInto carries the bits and mask of a full call and an unselected
// one is left as it was, and a sensor is stimulated only in the windows
// where its entry is selected — each single-entry selector's
// stimulations are that entry's share of the full call's.
func TestMatchIntoWantSkipsWindows(t *testing.T) {
	var stims int
	sensors := []Sensor{
		countingSensor{LocationSensor{SigmaKm: 5}, &stims},
		countingSensor{MediaSensor{}, &stims},
	}
	rng := rand.New(rand.NewSource(43))
	for _, cfg := range []MultiResolutionConfig{
		DefaultMultiResolutionConfig(),
		{WindowsDays: []int{1, 3, 7}, Q: 2, Lambda: 3, MeanPooling: true},
	} {
		nw := len(cfg.WindowsDays)
		n := len(sensors) * nw
		for trial := 0; trial < 40; trial++ {
			a := NewStream(randomEvents(rng, rng.Intn(40)))
			b := NewStream(randomEvents(rng, rng.Intn(40)))
			full, fullMask := make([]float64, n), make([]bool, n)
			stims = 0
			cfg.MatchInto(sensors, a, b, full, fullMask, nil)
			fullStims, singles := stims, 0
			for k, want := range wantSets(rng, len(sensors), nw) {
				x, mask := make([]float64, n), make([]bool, n)
				for i := range x {
					x[i], mask[i] = -7, true
				}
				stims = 0
				cfg.MatchInto(sensors, a, b, x, mask, want)
				selected := 0
				for i := range want {
					if !want[i] {
						if x[i] != -7 || !mask[i] {
							t.Fatalf("windows %v, trial %d: unselected entry %d = %v/%v, want it left alone",
								cfg.WindowsDays, trial, i, x[i], mask[i])
						}
						continue
					}
					selected++
					wx, wm := full[i], fullMask[i]
					if !wm {
						wx, wm = -7, true // unobserved: left alone, like a full call's
					}
					if math.Float64bits(x[i]) != math.Float64bits(wx) || mask[i] != wm {
						t.Fatalf("windows %v, trial %d: entry %d = %v/%v, full call %v/%v",
							cfg.WindowsDays, trial, i, x[i], mask[i], full[i], fullMask[i])
					}
				}
				if selected == 0 && stims != 0 {
					t.Fatalf("windows %v, trial %d: %d stimulations for an empty selector", cfg.WindowsDays, trial, stims)
				}
				if k >= 1 && k <= n {
					singles += stims
				}
			}
			if singles != fullStims {
				t.Fatalf("windows %v, trial %d: single-entry selectors stimulated %d times, the full call %d",
					cfg.WindowsDays, trial, singles, fullStims)
			}
		}
	}
}
