package temporal

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hydra/internal/linalg"
)

var t0 = time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)

func r30() Range { return Range{Start: t0, End: t0.Add(30 * Day)} }

func TestRangeBuckets(t *testing.T) {
	r := r30()
	if !r.Valid() {
		t.Fatal("range should be valid")
	}
	if got := r.NumBuckets(16 * Day); got != 2 {
		t.Fatalf("NumBuckets(16d) = %d, want 2", got)
	}
	if got := r.NumBuckets(8 * Day); got != 4 {
		t.Fatalf("NumBuckets(8d) = %d, want 4", got)
	}
	if got := r.NumBuckets(1 * Day); got != 30 {
		t.Fatalf("NumBuckets(1d) = %d, want 30", got)
	}
	if (Range{Start: t0, End: t0}).NumBuckets(Day) != 0 {
		t.Fatal("empty range should have 0 buckets")
	}
}

func TestBucketOf(t *testing.T) {
	r := r30()
	if got := r.BucketOf(t0.Add(17*Day), 16*Day); got != 1 {
		t.Fatalf("BucketOf = %d, want 1", got)
	}
	if got := r.BucketOf(t0.Add(-time.Hour), Day); got != -1 {
		t.Fatal("before-range time should map to -1")
	}
	if got := r.BucketOf(t0.Add(31*Day), Day); got != -1 {
		t.Fatal("after-range time should map to -1")
	}
}

func dot(a, b linalg.Vector) float64 { return a.Dot(b) }

// bucketMeans expands one scale of an account's series into the dense
// form the paper draws: one mean per bucket, nil where the bucket is
// empty. It reads each mean back through SimilarityInto, as the dot
// product with a probe holding a single unit observation in that bucket.
func bucketMeans(r Range, days int, times []time.Time, dists []linalg.Vector) []linalg.Vector {
	tl := NewTimeline(r, []int{days}, times)
	scale := time.Duration(days) * Day
	out := make([]linalg.Vector, r.NumBuckets(scale))
	for bkt := range out {
		at := []time.Time{r.Start.Add(time.Duration(bkt) * scale)}
		probe := NewTimeline(r, []int{days}, at)
		for d := range dists[0] {
			unit := linalg.NewVector(len(dists[0]))
			unit[d] = 1
			x, mask := []float64{0}, []bool{false}
			tl.SimilarityInto(&probe, [][]linalg.Vector{dists}, [][]linalg.Vector{{unit}}, dot, x, mask, nil)
			if mask[0] {
				if out[bkt] == nil {
					out[bkt] = linalg.NewVector(len(dists[0]))
				}
				out[bkt][d] = x[0]
			}
		}
	}
	return out
}

func TestAggregateDistributions(t *testing.T) {
	r := r30()
	times := []time.Time{t0.Add(Day), t0.Add(2 * Day), t0.Add(20 * Day)}
	dists := []linalg.Vector{{1, 0}, {0, 1}, {1, 0}}
	buckets := bucketMeans(r, 16, times, dists)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	// First bucket averages two one-hot dists.
	if math.Abs(buckets[0][0]-0.5) > 1e-12 || math.Abs(buckets[0][1]-0.5) > 1e-12 {
		t.Fatalf("bucket0 = %v", buckets[0])
	}
	if buckets[1][0] != 1 {
		t.Fatalf("bucket1 = %v", buckets[1])
	}
}

func TestAggregateDistributionsMismatch(t *testing.T) {
	// One timestamp, but no distribution in the first family: that family
	// is missing, the well-formed one beside it is not.
	tl := NewTimeline(r30(), []int{1}, []time.Time{t0})
	fams := [][]linalg.Vector{nil, {{1}}}
	x, mask := []float64{9, 9}, []bool{true, true}
	tl.SimilarityInto(&tl, fams, fams, dot, x, mask, nil)
	if mask[0] || x[0] != 0 {
		t.Fatalf("a family with 1 time but 0 distributions must be missing, got %v %v", x[0], mask[0])
	}
	if !mask[1] || x[1] != 1 {
		t.Fatalf("well-formed family beside a mismatched one: %v %v", x[1], mask[1])
	}
}

func TestAggregateSkipsOutOfRange(t *testing.T) {
	buckets := bucketMeans(r30(), 16, []time.Time{t0.Add(-Day), t0.Add(30 * Day)}, []linalg.Vector{{1}, {1}})
	for _, b := range buckets {
		if b != nil {
			t.Fatal("out-of-range event leaked into a bucket")
		}
	}
}

// TestAggregateGroupsOutOfOrderObservations: observations arrive in any
// order; each bucket still averages exactly its own.
func TestAggregateGroupsOutOfOrderObservations(t *testing.T) {
	times := []time.Time{t0.Add(20 * Day), t0.Add(Day), t0.Add(21 * Day), t0.Add(2 * Day), t0.Add(20*Day + time.Hour)}
	dists := []linalg.Vector{{1}, {2}, {4}, {8}, {16}}
	day := bucketMeans(r30(), 1, times, dists)
	for b, want := range map[int]float64{1: 2, 2: 8, 20: (1.0 + 16) / 2, 21: 4} {
		if day[b] == nil || day[b][0] != want {
			t.Fatalf("1-day bucket %d = %v, want %v", b, day[b], want)
		}
	}
	for b, mean := range day {
		if mean != nil && b != 1 && b != 2 && b != 20 && b != 21 {
			t.Fatalf("1-day bucket %d = %v, want it empty", b, mean)
		}
	}
	wide := bucketMeans(r30(), 16, times, dists)
	if wide[0][0] != (2.0+8)/2 || wide[1][0] != (1.0+4+16)/3 {
		t.Fatalf("16-day buckets = %v", wide)
	}
}

// daily is a one-scale series over r with one observation per given day
// (nil = no observation that day).
type daily struct {
	tl    Timeline
	dists []linalg.Vector
}

func newDaily(r Range, dists ...linalg.Vector) daily {
	var times []time.Time
	var kept []linalg.Vector
	for day, d := range dists {
		if d != nil {
			times = append(times, r.Start.Add(time.Duration(day)*Day))
			kept = append(kept, d)
		}
	}
	return daily{NewTimeline(r, []int{1}, times), kept}
}

// similarity is the one-scale, one-family form of SimilarityInto.
func similarity(a, b daily) (float64, bool) {
	x, mask := []float64{0}, []bool{false}
	a.tl.SimilarityInto(&b.tl, [][]linalg.Vector{a.dists}, [][]linalg.Vector{b.dists}, dot, x, mask, nil)
	return x[0], mask[0]
}

func TestSeriesSimilarity(t *testing.T) {
	a := newDaily(r30(), linalg.Vector{1, 0}, nil, linalg.Vector{0, 1})
	b := newDaily(r30(), linalg.Vector{1, 0}, linalg.Vector{1, 0}, nil)
	v, ok := similarity(a, b)
	if !ok {
		t.Fatal("expected overlap")
	}
	if v != 1 {
		t.Fatalf("similarity = %v, want 1 (only bucket 0 overlaps)", v)
	}
	// Every overlapping bucket counts.
	c := newDaily(r30(), linalg.Vector{1, 0}, linalg.Vector{0, 1}, linalg.Vector{0.5, 0.5})
	if v, ok := similarity(c, c); !ok || math.Abs(v-(1+1+0.5)/3) > 1e-12 {
		t.Fatalf("self similarity = %v, %v", v, ok)
	}
}

func TestSeriesSimilarityNoOverlap(t *testing.T) {
	a := newDaily(r30(), linalg.Vector{1}, nil)
	b := newDaily(r30(), nil, linalg.Vector{1})
	if _, ok := similarity(a, b); ok {
		t.Fatal("expected missing feature when no bucket overlaps")
	}
	if _, ok := similarity(newDaily(r30()), newDaily(r30())); ok {
		t.Fatal("empty series should be missing")
	}
}

func TestMultiScaleSimilarity(t *testing.T) {
	r := r30()
	timesA := []time.Time{t0.Add(Day), t0.Add(10 * Day)}
	timesB := []time.Time{t0.Add(Day + time.Hour), t0.Add(10*Day + time.Hour)}
	dists := [][]linalg.Vector{{{0.5, 0.5}, {0.5, 0.5}}}
	a, b := NewTimeline(r, []int{1, 16}, timesA), NewTimeline(r, []int{1, 16}, timesB)
	vec, mask := make([]float64, 2), make([]bool, 2)
	a.SimilarityInto(&b, dists, dists, dot, vec, mask, nil)
	if !mask[0] || !mask[1] {
		t.Fatalf("both scales should be observed: %v", mask)
	}
	if math.Abs(vec[0]-0.5) > 1e-12 {
		t.Fatalf("similarity = %v", vec[0])
	}
}

// TestSimilarityLongDistributions: distributions too long for the stack
// scratch take the allocating path to the same numbers.
func TestSimilarityLongDistributions(t *testing.T) {
	long := linalg.NewVector(meanScratch + 3).Fill(0.25)
	a := newDaily(r30(), long, long)
	if v, ok := similarity(a, a); !ok || v != long.Dot(long) {
		t.Fatalf("similarity = %v, %v; want %v", v, ok, long.Dot(long))
	}
}

func TestHaversine(t *testing.T) {
	// Beijing to Shanghai ≈ 1067 km.
	got := haversineKm(31.2304-39.9042, 121.4737-116.4074, math.Cos(toRad(39.9042)), math.Cos(toRad(31.2304)))
	if math.Abs(got-1067) > 25 {
		t.Fatalf("Haversine = %v km, want ≈1067", got)
	}
	if haversineKm(0, 0, math.Cos(toRad(10)), math.Cos(toRad(10))) != 0 {
		t.Fatal("same point should be 0 km")
	}
}

// sensorSignals collects a sensor's stimulation of every window in which both
// event lists are active — what MatchInto pools.
func sensorSignals(s Sensor, a, b []Event, window time.Duration) []float64 {
	var out []float64
	ws := newWindowScan(NewStream(a), NewStream(b), window)
	for ea, eb, ok := ws.next(); ok; ea, eb, ok = ws.next() {
		if v := s.stimulate(ea, eb); v >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// match runs MatchInto into fresh outputs.
func match(sensors []Sensor, cfg MultiResolutionConfig, a, b []Event) ([]float64, []bool) {
	n := len(sensors) * len(cfg.WindowsDays)
	vec, mask := make([]float64, n), make([]bool, n)
	cfg.MatchInto(sensors, NewStream(a), NewStream(b), vec, mask, nil)
	return vec, mask
}

func mkEvents(times []time.Duration, lat, lon float64, media uint64) []Event {
	evs := make([]Event, len(times))
	for i, d := range times {
		evs[i] = Event{Time: t0.Add(d), Lat: lat, Lon: lon, MediaID: media}
	}
	return evs
}

func TestLocationSensor(t *testing.T) {
	s := LocationSensor{SigmaKm: 5}
	a := mkEvents([]time.Duration{Day, 3 * Day}, 39.9, 116.4, 0)
	b := mkEvents([]time.Duration{Day + time.Hour}, 39.9, 116.4, 0)
	signals := sensorSignals(s, a, b, 2*Day)
	if len(signals) != 1 {
		t.Fatalf("signals = %v", signals)
	}
	if signals[0] < 0.99 {
		t.Fatalf("co-located signal = %v, want ≈1", signals[0])
	}
	// Far apart: signal near zero but still present (both active).
	far := mkEvents([]time.Duration{Day}, 31.2, 121.5, 0)
	signals = sensorSignals(s, a, far, 2*Day)
	if len(signals) != 1 || signals[0] > 1e-6 {
		t.Fatalf("far signal = %v", signals)
	}
}

func TestLocationSensorEmpty(t *testing.T) {
	s := LocationSensor{}
	if got := sensorSignals(s, nil, mkEvents([]time.Duration{Day}, 0, 0, 0), Day); got != nil {
		t.Fatalf("empty stream should give nil, got %v", got)
	}
}

func TestMediaSensor(t *testing.T) {
	s := MediaSensor{}
	a := mkEvents([]time.Duration{Day}, 0, 0, 42)
	b := mkEvents([]time.Duration{Day + 2*time.Hour}, 0, 0, 42)
	signals := sensorSignals(s, a, b, 2*Day)
	if len(signals) != 1 || signals[0] != 1 {
		t.Fatalf("shared media = %v", signals)
	}
	c := mkEvents([]time.Duration{Day}, 0, 0, 99)
	signals = sensorSignals(s, a, c, 2*Day)
	if len(signals) != 1 || signals[0] != 0 {
		t.Fatalf("disjoint media = %v", signals)
	}
	// Location-only events on one side → window skipped entirely.
	loc := mkEvents([]time.Duration{Day}, 1, 1, 0)
	if got := sensorSignals(s, a, loc, 2*Day); got != nil {
		t.Fatalf("media/location mix should be skipped, got %v", got)
	}
}

// pooled feeds signals through p, as MatchInto does for one sensor and
// window.
func pooled(p pool, signals []float64) float64 {
	for _, s := range signals {
		p.add(s)
	}
	return p.value()
}

func TestLqPool(t *testing.T) {
	// q=1 is the mean.
	if v := pooled(pool{q: 1}, []float64{0.2, 0.4}); math.Abs(v-0.3) > 1e-12 {
		t.Fatalf("lq pool q=1 = %v", v)
	}
	// Large q approaches max.
	if v := pooled(pool{q: 64}, []float64{0.1, 0.9}); v < 0.85 {
		t.Fatalf("lq pool q=64 = %v, want ≈0.9", v)
	}
	cfg := DefaultMultiResolutionConfig()
	cfg.Q = 0.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected error for q<1")
	}
	// A negative stimulation means "nothing to read" (here: no media event
	// on one side): it is never pooled, so the window stays missing.
	loc, media := mkEvents([]time.Duration{Day}, 39.9, 116.4, 0), mkEvents([]time.Duration{Day}, 0, 0, 7)
	if _, mask := match([]Sensor{MediaSensor{}}, DefaultMultiResolutionConfig(), media, loc); slices.Contains(mask, true) {
		t.Fatalf("negative stimulations were pooled: mask %v", mask)
	}
	if v := pooled(pool{q: 2}, nil); v != 0 {
		t.Fatal("empty pool should be 0")
	}
}

func TestMeanPool(t *testing.T) {
	if pooled(pool{mean: true}, nil) != 0 {
		t.Fatal("empty mean pool")
	}
	if got := pooled(pool{mean: true}, []float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean pool = %v", got)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0, 4); got != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", got)
	}
	if Sigmoid(10, 4) < 0.99 || Sigmoid(-10, 4) > 0.01 {
		t.Fatal("sigmoid saturation wrong")
	}
}

func TestMultiResolutionMatch(t *testing.T) {
	cfg := DefaultMultiResolutionConfig()
	sensors := []Sensor{LocationSensor{SigmaKm: 5}, MediaSensor{}}
	a := append(mkEvents([]time.Duration{Day, 5 * Day}, 39.9, 116.4, 0),
		mkEvents([]time.Duration{2 * Day}, 0, 0, 7)...)
	b := append(mkEvents([]time.Duration{Day + time.Hour}, 39.9, 116.4, 0),
		mkEvents([]time.Duration{2*Day + time.Hour}, 0, 0, 7)...)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	vec, mask := match(sensors, cfg, a, b)
	if len(vec) != 2*len(cfg.WindowsDays) {
		t.Fatalf("vector length %d", len(vec))
	}
	anyObserved := false
	for i, m := range mask {
		if m {
			anyObserved = true
			if vec[i] < 0 || vec[i] > 1 {
				t.Fatalf("feature %d out of range: %v", i, vec[i])
			}
		} else if vec[i] != 0 {
			t.Fatalf("missing feature %d has nonzero value %v", i, vec[i])
		}
	}
	if !anyObserved {
		t.Fatal("expected at least one observed dimension")
	}
}

// matchPerSensor is MatchInto as it was before the windows were shared:
// one scan per sensor per window size. It is the reference the shared
// scan must reproduce bit for bit.
func matchPerSensor(cfg MultiResolutionConfig, sensors []Sensor, a, b Stream, x []float64, mask []bool) {
	nw := len(cfg.WindowsDays)
	for si, sensor := range sensors {
		for wi, days := range cfg.WindowsDays {
			p := pool{q: cfg.Q, mean: cfg.MeanPooling}
			ws := newWindowScan(a, b, time.Duration(days)*Day)
			for ea, eb, ok := ws.next(); ok; ea, eb, ok = ws.next() {
				if v := sensor.stimulate(ea, eb); v >= 0 {
					p.add(v)
				}
			}
			if p.n == 0 {
				continue
			}
			idx := si*nw + wi
			x[idx] = Sigmoid(p.value(), cfg.Lambda)
			mask[idx] = true
		}
	}
}

// randomEvents draws n events over 60 days: location check-ins around a
// few shared places and media postings from a small fingerprint pool, so
// windows both match and miss, with some timestamps repeated exactly.
func randomEvents(rng *rand.Rand, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		at := time.Duration(rng.Int63n(int64(60 * Day)))
		if i > 0 && rng.Intn(8) == 0 {
			at = evs[i-1].Time.Sub(t0)
		}
		evs[i].Time = t0.Add(at)
		if rng.Intn(2) == 0 {
			evs[i].MediaID = uint64(1 + rng.Intn(6))
		} else {
			evs[i].Lat = 30 + float64(rng.Intn(3)) + rng.Float64()*0.05
			evs[i].Lon = 110 + float64(rng.Intn(3)) + rng.Float64()*0.05
		}
	}
	return evs
}

// TestMatchIntoSharedScanBitIdentical: one window scan feeding every
// sensor writes exactly the x and mask bits of one scan per sensor, over
// seeded random streams, both pooling modes, and a sensor bank larger
// than MatchInto's stack buffer.
func TestMatchIntoSharedScanBitIdentical(t *testing.T) {
	banks := [][]Sensor{
		{LocationSensor{SigmaKm: 5}, MediaSensor{}},
		{MediaSensor{}, LocationSensor{SigmaKm: 50}, LocationSensor{}, MediaSensor{}, LocationSensor{SigmaKm: 1}},
	}
	cfgs := []MultiResolutionConfig{
		DefaultMultiResolutionConfig(),
		{WindowsDays: []int{1, 3, 7}, Q: 2, Lambda: 3, MeanPooling: true},
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		a := NewStream(randomEvents(rng, rng.Intn(40)))
		b := NewStream(randomEvents(rng, rng.Intn(40)))
		for _, sensors := range banks {
			for _, cfg := range cfgs {
				n := len(sensors) * len(cfg.WindowsDays)
				x, mask := make([]float64, n), make([]bool, n)
				wx, wmask := make([]float64, n), make([]bool, n)
				cfg.MatchInto(sensors, a, b, x, mask, nil)
				matchPerSensor(cfg, sensors, a, b, wx, wmask)
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(wx[i]) || mask[i] != wmask[i] {
						t.Fatalf("trial %d, %d sensors, windows %v: dim %d = %v/%v, per-sensor scan %v/%v",
							trial, len(sensors), cfg.WindowsDays, i, x[i], mask[i], wx[i], wmask[i])
					}
				}
			}
		}
	}
}

func TestMultiResolutionMatchDisjointStreams(t *testing.T) {
	cfg := DefaultMultiResolutionConfig()
	sensors := []Sensor{MediaSensor{}}
	a := mkEvents([]time.Duration{Day}, 0, 0, 1)
	vec, mask := match(sensors, cfg, a, nil)
	for i := range mask {
		if mask[i] || vec[i] != 0 {
			t.Fatal("all features should be missing when one stream is empty")
		}
	}
}

// Property: lq pooling is monotone in q toward the max and always lies
// between mean and max of the signals.
func TestLqPoolBoundsProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		sig := []float64{float64(a) / 255, float64(b) / 255, float64(c) / 255}
		mean := pooled(pool{mean: true}, sig)
		maxv := math.Max(sig[0], math.Max(sig[1], sig[2]))
		for _, q := range []float64{1, 2, 4, 8, 32} {
			if v := pooled(pool{q: q}, sig); v < mean-1e-9 || v > maxv+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sigmoid output is always in (0,1) and monotone in s.
func TestSigmoidProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		x, y := math.Mod(a, 50), math.Mod(b, 50)
		sx, sy := Sigmoid(x, 2), Sigmoid(y, 2)
		if sx < 0 || sx > 1 {
			return false
		}
		if x < y && sx > sy {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNewTimelineOrderMatchesStableSort holds the counting-sort layout
// to the stable sort by bucket it replaced: over random ranges, random
// observation times (some outside the range, some on bucket edges) and
// every scale, each scale's grouping equals slices.SortStableFunc of
// the inside observations by bucket id.
func TestNewTimelineOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scales := append(append([]int(nil), DefaultScalesDays...), 3, 7, 365, 400)
	for trial := 0; trial < 300; trial++ {
		start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Int63n(int64(1000 * Day))))
		r := Range{Start: start, End: start.Add(time.Duration(1 + rng.Int63n(int64(800*Day))))}
		times := make([]time.Time, rng.Intn(200))
		for i := range times {
			switch rng.Intn(8) {
			case 0: // outside, on either side
				times[i] = r.Start.Add(-time.Duration(1 + rng.Int63n(int64(30*Day))))
			case 1:
				times[i] = r.End.Add(time.Duration(rng.Int63n(int64(30 * Day))))
			case 2: // on a day boundary
				times[i] = r.Start.Add(time.Duration(rng.Int63n(int64(r.Duration()/Day)+1)) * Day)
			default:
				times[i] = r.Start.Add(time.Duration(rng.Int63n(int64(r.Duration()))))
			}
		}
		tl := NewTimeline(r, scales, times)
		var inside []int32
		for i, ts := range times {
			if r.Contains(ts) {
				inside = append(inside, int32(i))
			}
		}
		m := len(inside)
		if len(tl.order) != len(scales)*m {
			t.Fatalf("trial %d: order holds %d entries, want %d", trial, len(tl.order), len(scales)*m)
		}
		for s, days := range scales {
			scale := time.Duration(days) * Day
			want := slices.Clone(inside)
			slices.SortStableFunc(want, func(x, y int32) int {
				return int(r.BucketOf(times[x], scale) - r.BucketOf(times[y], scale))
			})
			if got := tl.order[s*m : (s+1)*m]; !slices.Equal(got, want) {
				t.Fatalf("trial %d, scale %d days: order %v, want %v", trial, days, got, want)
			}
		}
	}
}
