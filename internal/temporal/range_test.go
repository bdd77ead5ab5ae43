package temporal

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"hydra/internal/linalg"
)

func TestRangeValidity(t *testing.T) {
	if (Range{Start: t0, End: t0}).Valid() {
		t.Fatal("empty range should be invalid")
	}
	if (Range{Start: t0.Add(Day), End: t0}).Valid() {
		t.Fatal("inverted range should be invalid")
	}
	r := Range{Start: t0, End: t0.Add(Day)}
	if !r.Valid() || r.Duration() != 24*time.Hour {
		t.Fatal("range basics wrong")
	}
}

func TestNumBucketsEdgeCases(t *testing.T) {
	r := Range{Start: t0, End: t0.Add(10 * Day)}
	if r.NumBuckets(0) != 0 {
		t.Fatal("zero scale should give 0 buckets")
	}
	if r.NumBuckets(-Day) != 0 {
		t.Fatal("negative scale should give 0 buckets")
	}
	// Exact division: no partial bucket.
	if got := r.NumBuckets(5 * Day); got != 2 {
		t.Fatalf("exact division buckets = %d", got)
	}
	// Scale larger than the range: one bucket.
	if got := r.NumBuckets(100 * Day); got != 1 {
		t.Fatalf("oversized scale buckets = %d", got)
	}
}

func TestBucketBoundaries(t *testing.T) {
	r := Range{Start: t0, End: t0.Add(4 * Day)}
	// The instant exactly at a bucket boundary belongs to the next bucket.
	if got := r.BucketOf(t0.Add(2*Day), 2*Day); got != 1 {
		t.Fatalf("boundary bucket = %d", got)
	}
	// The range start belongs to bucket 0.
	if got := r.BucketOf(t0, 2*Day); got != 0 {
		t.Fatalf("start bucket = %d", got)
	}
	// The range end is exclusive.
	if got := r.BucketOf(t0.Add(4*Day), 2*Day); got != -1 {
		t.Fatalf("end instant bucket = %d", got)
	}
}

func TestSeriesSimilarityShorterSeries(t *testing.T) {
	// Series laid out over ranges of different length: only the shared
	// prefix of buckets can overlap.
	long := Range{Start: t0, End: t0.Add(3 * Day)}
	short := Range{Start: t0, End: t0.Add(Day)}
	a := newDaily(long, linalg.Vector{1, 0}, linalg.Vector{0, 1}, linalg.Vector{1, 0})
	b := newDaily(short, linalg.Vector{1, 0}, linalg.Vector{0, 1})
	if v, ok := similarity(a, b); !ok || v != 1 {
		t.Fatalf("prefix comparison wrong: v=%v ok=%v", v, ok)
	}
}

func TestMultiScaleSimilarityAllMissing(t *testing.T) {
	r := Range{Start: t0, End: t0.Add(30 * Day)}
	// User B has no posts: every scale must be missing.
	a := NewTimeline(r, []int{1, 8, 32}, []time.Time{t0.Add(Day)})
	b := NewTimeline(r, []int{1, 8, 32}, nil)
	vec, mask := []float64{9, 9, 9}, []bool{true, true, true}
	a.SimilarityInto(&b, [][]linalg.Vector{{{1, 0}}}, [][]linalg.Vector{nil}, dot, vec, mask, nil)
	for i := range mask {
		if mask[i] || vec[i] != 0 {
			t.Fatal("empty counterpart must yield all-missing features")
		}
	}
}

func TestScanWindowsOrderingIndependence(t *testing.T) {
	// Events arriving out of order must produce the same signals.
	s := MediaSensor{}
	evs1 := []Event{
		{Time: t0.Add(3 * Day), MediaID: 5},
		{Time: t0.Add(Day), MediaID: 4},
	}
	evs2 := []Event{
		{Time: t0.Add(Day), MediaID: 4},
		{Time: t0.Add(3 * Day), MediaID: 5},
	}
	other := []Event{{Time: t0.Add(Day + time.Hour), MediaID: 4}}
	a := sensorSignals(s, append([]Event(nil), evs1...), append([]Event(nil), other...), 2*Day)
	b := sensorSignals(s, append([]Event(nil), evs2...), append([]Event(nil), other...), 2*Day)
	if len(a) != len(b) {
		t.Fatalf("order dependence: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order dependence at %d: %v vs %v", i, a, b)
		}
	}
}

func TestLocationSensorDefaultSigma(t *testing.T) {
	// SigmaKm <= 0 must fall back to the default rather than divide by 0.
	s := LocationSensor{SigmaKm: 0}
	a := []Event{{Time: t0.Add(Day), Lat: 10, Lon: 10}}
	b := []Event{{Time: t0.Add(Day), Lat: 10, Lon: 10}}
	signals := sensorSignals(s, a, b, 2*Day)
	if len(signals) != 1 || signals[0] < 0.99 {
		t.Fatalf("default-sigma signal = %v", signals)
	}
}

func TestMediaSensorIgnoresLocationEvents(t *testing.T) {
	s := LocationSensor{SigmaKm: 5}
	// Media events must not contribute to location matching.
	a := []Event{{Time: t0.Add(Day), MediaID: 9}}
	b := []Event{{Time: t0.Add(Day), Lat: 1, Lon: 1}}
	signals := sensorSignals(s, a, b, 2*Day)
	// Window has both users active but no location pair on side A: the
	// max over an empty set is 0 — a zero-stimulation signal.
	if len(signals) != 1 || signals[0] != 0 {
		t.Fatalf("signals = %v", signals)
	}
}

// steppedWindows is the scan as Figure 6 draws it: step a tumbling window
// from the first event to the last, one window at a time, and report the
// event counts of every window in which both users were active.
func steppedWindows(a, b []Event, window time.Duration) [][2]int {
	a, b = append([]Event(nil), a...), append([]Event(nil), b...)
	for _, evs := range [][]Event{a, b} {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	}
	start, end := a[0].Time, a[len(a)-1].Time
	if b[0].Time.Before(start) {
		start = b[0].Time
	}
	if b[len(b)-1].Time.After(end) {
		end = b[len(b)-1].Time
	}
	var out [][2]int
	for t := start; !t.After(end); t = t.Add(window) {
		var n [2]int
		for side, evs := range [][]Event{a, b} {
			for _, e := range evs {
				if !e.Time.Before(t) && e.Time.Before(t.Add(window)) {
					n[side]++
				}
			}
		}
		if n[0] > 0 && n[1] > 0 {
			out = append(out, n)
		}
	}
	return out
}

// TestWindowScanJumpsLikeStepping: jumping from one event-bearing window
// to the next yields exactly the windows a step-by-step walk yields.
func TestWindowScanJumpsLikeStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		mk := func() []Event {
			evs := make([]Event, 1+rng.Intn(12))
			for i := range evs {
				// Whole and fractional days, clustered and far apart, with ties.
				evs[i].Time = t0.Add(time.Duration(rng.Intn(40))*Day/2 + time.Duration(rng.Intn(3))*time.Duration(rng.Intn(400))*Day)
			}
			return evs
		}
		a, b := mk(), mk()
		window := time.Duration(1+rng.Intn(9)) * Day
		var got [][2]int
		ws := newWindowScan(NewStream(a), NewStream(b), window)
		for ea, eb, ok := ws.next(); ok; ea, eb, ok = ws.next() {
			got = append(got, [2]int{len(ea), len(eb)})
		}
		if want := steppedWindows(a, b, window); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, %v windows: jumped %v, stepped %v", trial, window, got, want)
		}
	}
}

// TestWindowScanExtremeStamps: stamps at both ends of the int64 range —
// a hostile bundle can carry any — neither hang nor crash the scan, and
// every event is still read exactly once.
func TestWindowScanExtremeStamps(t *testing.T) {
	at := func(ns int64) Event { return Event{Time: time.Unix(0, ns), MediaID: 1} }
	a := NewStream([]Event{at(math.MinInt64), at(-1), at(math.MaxInt64 - 1)})
	b := NewStream([]Event{at(math.MinInt64 + 5), at(0), at(math.MaxInt64)})
	for _, window := range []time.Duration{1, Day, math.MaxInt64} {
		var na, nb int
		ws := newWindowScan(a, b, window)
		for ea, eb, ok := ws.next(); ok; ea, eb, ok = ws.next() {
			na, nb = na+len(ea), nb+len(eb)
		}
		// In a 1 ns window every event sits alone; in the wider ones each
		// event has the other user's neighbour for company.
		want := 3
		if window == 1 {
			want = 0
		}
		if na != want || nb != want {
			t.Fatalf("window %v: read %d and %d events in shared windows, want %d each", window, na, nb, want)
		}
	}
}

// NumBuckets returns the number of buckets of the given scale covering r
// (the final partial bucket counts).
func (r Range) NumBuckets(scale time.Duration) int {
	if !r.Valid() || scale <= 0 {
		return 0
	}
	d := r.Duration()
	n := int(d / scale)
	if d%scale != 0 {
		n++
	}
	return n
}

// BucketOf returns the bucket index of t within r at the given scale, or
// -1 if t lies outside r.
func (r Range) BucketOf(t time.Time, scale time.Duration) int {
	if !r.Contains(t) {
		return -1
	}
	return int(t.Sub(r.Start) / scale)
}
