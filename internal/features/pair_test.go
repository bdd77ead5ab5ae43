package features

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/temporal"
)

// platformViews builds every view of one platform.
func platformViews(t testing.TB, p *Pipeline, ds *platform.Dataset, id platform.ID) []*AccountView {
	t.Helper()
	pl, err := ds.Platform(id)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*AccountView, len(pl.Accounts))
	for i, acc := range pl.Accounts {
		views[i] = p.BuildView(acc)
	}
	return views
}

// restoreViews round-trips views through the snapshot codec.
func restoreViews(views []*AccountView) []*AccountView {
	out := make([]*AccountView, len(views))
	for i, v := range views {
		out[i] = RestoreView(SnapshotView(v), v.Acc.Platform, v.Acc.Local)
	}
	return out
}

// requireSamePair asserts got is the reference's vector bit for bit.
func requireSamePair(t *testing.T, what string, p *Pipeline, got, want PairVector) {
	t.Helper()
	if len(got.X) != len(want.X) || len(got.Mask) != len(want.Mask) {
		t.Fatalf("%s: shape %d/%d, reference %d/%d", what, len(got.X), len(got.Mask), len(want.X), len(want.Mask))
	}
	for d := range want.X {
		if math.Float64bits(got.X[d]) != math.Float64bits(want.X[d]) || got.Mask[d] != want.Mask[d] {
			t.Fatalf("%s: %s = %v (observed %v), reference %v (observed %v)",
				what, p.names[d], got.X[d], got.Mask[d], want.X[d], want.Mask[d])
		}
	}
}

// TestPairMatchesReference is the differential test the benchmark cannot
// give: every A×B pair of a 60-person world, through built views under
// the trained pipeline and through snapshot-restored views under the
// restored pipeline, must equal the frozen reference kernel
// (reference_test.go) in every bit of X and every Mask entry. PairInto is
// fed dirty buffers, so a dimension it forgets to clear shows up too.
func TestPairMatchesReference(t *testing.T) {
	w, p := worldAndPipeline(t, 60, 1)
	builtA := platformViews(t, p, w.Dataset, platform.Twitter)
	builtB := platformViews(t, p, w.Dataset, platform.Facebook)
	restored, err := PipelineFromParts(p.Parts())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pipe *Pipeline
		a, b []*AccountView
	}{
		{"built", p, builtA, builtB},
		{"restored", restored, restoreViews(builtA), restoreViews(builtB)},
	} {
		x := linalg.NewVector(c.pipe.Dim())
		mask := make([]bool, c.pipe.Dim())
		observed := make([]bool, c.pipe.Dim())
		for _, a := range c.a {
			for _, b := range c.b {
				want := refPair(c.pipe, a, b)
				x.Fill(math.NaN())
				for d := range mask {
					mask[d] = true
				}
				c.pipe.PairInto(a, b, x, mask, nil)
				requireSamePair(t, c.name, c.pipe, PairVector{X: x, Mask: mask}, want)
				for d, m := range want.Mask {
					observed[d] = observed[d] || m
				}
			}
		}
		// The comparison is only worth its name if every dimension was
		// actually exercised somewhere in the cross product.
		for d, ok := range observed {
			if !ok {
				t.Fatalf("%s: %s never observed — the world does not exercise it", c.name, c.pipe.names[d])
			}
		}
	}
}

// TestPairMatchesReferenceAblations repeats the comparison under the
// configuration switches that change the pair arithmetic: mean pooling,
// histogram intersection, other scales, windows and style depths.
func TestPairMatchesReferenceAblations(t *testing.T) {
	w, p := worldAndPipeline(t, 20, 2)
	parts := p.Parts()
	parts.Cfg.MR = temporal.MultiResolutionConfig{WindowsDays: []int{3, 30}, Lambda: 2, MeanPooling: true}
	parts.Cfg.UseHistogramIntersection = true
	parts.Cfg.ScalesDays = []int{3, 7, 400}
	parts.Cfg.StyleKs = []int{2, 9}
	parts.Cfg.LocationSigmaKm = 0
	abl, err := PipelineFromParts(parts)
	if err != nil {
		t.Fatal(err)
	}
	as := platformViews(t, p, w.Dataset, platform.Twitter)
	bs := platformViews(t, p, w.Dataset, platform.Facebook)
	for _, a := range as {
		for _, b := range bs {
			// The same views under two pipelines in turn: derived state
			// built for one must never leak into the other's vector.
			requireSamePair(t, "ablation", abl, abl.Pair(a, b), refPair(abl, a, b))
			requireSamePair(t, "default", p, p.Pair(a, b), refPair(p, a, b))
		}
	}
}

// hostileView hand-builds a view: the situations a generated world never
// produces but a bundle can carry.
func hostileView(local int, username string, posts []time.Time, dim int, unique []string, events []temporal.Event) *AccountView {
	dists := func(seed float64) []linalg.Vector {
		out := make([]linalg.Vector, len(posts))
		for i := range out {
			v := linalg.NewVector(dim)
			for j := range v {
				v[j] = math.Mod(seed+float64(3*i+j)*0.37, 1)
			}
			out[i] = v.Scale(1 / v.Sum())
		}
		return out
	}
	return RestoreView(ViewParts{
		Username:   username,
		Attrs:      map[platform.AttrName]string{platform.AttrTag: "a,,b", platform.AttrCity: "Springfield"},
		AvatarID:   uint64(7 + local%2),
		Events:     events,
		PostTimes:  posts,
		TopicDists: dists(0.1),
		GenreDists: dists(0.2),
		SentDists:  dists(0.3),
		Unique:     unique,
		Embedding:  linalg.NewVector(3),
	}, platform.Twitter, local)
}

func TestPairHostileViews(t *testing.T) {
	_, trained := worldAndPipeline(t, 10, 3)
	p, err := PipelineFromParts(trained.Parts())
	if err != nil {
		t.Fatal(err)
	}
	s := p.span.Start
	at := func(d time.Duration) time.Time { return s.Add(d) }
	day := temporal.Day
	loc := func(d time.Duration, lat, lon float64) temporal.Event {
		return temporal.Event{Time: at(d), Lat: lat, Lon: lon}
	}
	media := func(d time.Duration, id uint64) temporal.Event {
		return temporal.Event{Time: at(d), MediaID: id}
	}
	mismatched := hostileView(8, "mismatch", []time.Time{at(day), at(2 * day)}, 4, []string{"w"}, nil)
	mismatched.GenreDists = mismatched.GenreDists[:1]

	views := map[string]*AccountView{
		"empty":     hostileView(0, "", nil, 4, nil, nil),
		"no-events": hostileView(1, "postsonly", []time.Time{at(day), at(day + time.Hour), at(40 * day)}, 4, []string{"zork", "quux"}, nil),
		"one-event": hostileView(2, "solo", nil, 4, nil, []temporal.Event{loc(day, 10, 10)}),
		"media-only": hostileView(3, "media_only", []time.Time{at(3 * day)}, 4, []string{"zork"},
			[]temporal.Event{media(5*day, 9), media(day, 4), media(day+time.Minute, 4), media(90*day, 11)}),
		"location-only": hostileView(4, "loc_only", []time.Time{at(3*day + time.Hour)}, 4, []string{"quux", "zork"},
			[]temporal.Event{loc(day, 10, 10), loc(5*day+time.Hour, 10.01, 10.01), loc(200*day, -33, 151)}),
		// Equal timestamps, out of order: where the unstable sort puts
		// them decides which events share a window edge.
		"equal-stamps": hostileView(5, "ties", []time.Time{at(9 * day), at(day), at(9 * day), at(day)}, 4, []string{"a", "b", "c"},
			[]temporal.Event{media(7*day, 3), loc(day, 10, 10), media(day, 4), loc(7*day, 10, 10), media(day, 9), loc(day, 50, 50),
				media(7*day, 4), loc(3*day, 10, 10), media(day, 11), loc(day, 10.001, 10), media(3*day, 9), loc(7*day, 0, 0), media(day, 4)}),
		// Posts before, at both edges of, and after the span; events far
		// outside it (events are not clipped to the span).
		"out-of-span": hostileView(6, "outsider", []time.Time{at(-day), s, p.span.End.Add(-time.Nanosecond), p.span.End, at(800 * day)}, 4, []string{"zork"},
			[]temporal.Event{loc(-400*day, 10, 10), media(900*day, 4), loc(day, 10, 10)}),
		"duplicate-unique": hostileView(7, "dupes", []time.Time{at(day)}, 4, []string{"zork", "zork", "quux", "zork", "zork", "zork"}, nil),
		"mismatched-dists": mismatched,
	}
	for an, a := range views {
		for bn, b := range views {
			requireSamePair(t, an+" × "+bn, p, p.Pair(a, b), refPair(p, a, b))
		}
	}

	// The one documented behaviour of a length mismatch: that family,
	// and only that family, is unobserved against every partner.
	pv := p.Pair(mismatched, views["no-events"])
	for d, g := range p.groups {
		if g == "genre" && pv.Mask[d] {
			t.Fatalf("%s observed although PostTimes and GenreDists disagree in length", p.names[d])
		}
		if (g == "topic" || g == "sentiment") && !pv.Mask[d] {
			t.Fatalf("%s lost with the damaged genre family", p.names[d])
		}
	}
}

// TestPairConcurrentFirstTouch has many goroutines pair the same fresh
// views at once, so every derive races; run under -race by `make race`.
// Whichever derived state wins the CAS, every vector must be the
// reference's.
func TestPairConcurrentFirstTouch(t *testing.T) {
	w, p := worldAndPipeline(t, 12, 4)
	as := platformViews(t, p, w.Dataset, platform.Twitter)
	bs := platformViews(t, p, w.Dataset, platform.Facebook)
	want := make([][]PairVector, len(as))
	for i, a := range as {
		want[i] = make([]PairVector, len(bs))
		for j, b := range bs {
			want[i][j] = refPair(p, a, b)
		}
	}
	for round := 0; round < 3; round++ {
		freshA, freshB := restoreViews(as), restoreViews(bs)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < len(freshA)*len(freshB); k++ {
					// Each goroutine walks the grid from its own offset.
					n := (k + g*17) % (len(freshA) * len(freshB))
					i, j := n/len(freshB), n%len(freshB)
					got := p.Pair(freshA[i], freshB[j])
					for d := range got.X {
						if math.Float64bits(got.X[d]) != math.Float64bits(want[i][j].X[d]) || got.Mask[d] != want[i][j].Mask[d] {
							t.Errorf("pair (%d,%d) %s differs from the reference under concurrent first touch", i, j, p.names[d])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestPairIntoSteadyStateAllocs pins the point of PairInto: once both
// views are derived, a pair costs no allocation. (Named outside `make
// race`'s filter: the race runtime inflates AllocsPerRun.)
func TestPairIntoSteadyStateAllocs(t *testing.T) {
	w, p := worldAndPipeline(t, 20, 5)
	as := platformViews(t, p, w.Dataset, platform.Twitter)
	bs := platformViews(t, p, w.Dataset, platform.Facebook)
	x := linalg.NewVector(p.Dim())
	mask := make([]bool, p.Dim())
	sweep := func() {
		for _, a := range as {
			for _, b := range bs {
				p.PairInto(a, b, x, mask, nil)
			}
		}
	}
	sweep() // derive every view
	if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
		t.Fatalf("PairInto allocates in steady state: %v allocs per %d pairs", allocs, len(as)*len(bs))
	}
}

// TestDerivedStateBytes measures what pairing leaves behind on a view,
// on the benchmark's world: derived state is memory held for as long as
// the view is, by every account a server has ever paired, so it is kept
// to a layout of the account's own timestamps and events — a fraction of
// the view — and holds no per-bucket distributions (at six scales they
// would outweigh the view itself). The bound fails a change that starts
// caching those.
func TestDerivedStateBytes(t *testing.T) {
	w, p := worldAndPipeline(t, 130, 1)
	views := append(platformViews(t, p, w.Dataset, platform.Twitter), platformViews(t, p, w.Dataset, platform.Facebook)...)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for _, v := range views {
		p.derive(v)
	}
	perView := float64(heap()-before) / float64(len(views))
	t.Logf("derived state: %.0f B per account over %d accounts", perView, len(views))
	if perView > 2048 {
		t.Fatalf("derived state costs %.0f B per account, budget 2048", perView)
	}
	runtime.KeepAlive(views)
}

// TestConfigValidation is the "silently wrong → refused" fix: both
// constructors reject every config that used to make Pair swallow a
// temporal error and serve the affected dimensions as unobserved.
func TestConfigValidation(t *testing.T) {
	w, p := worldAndPipeline(t, 10, 6)
	lx := Lexicons{Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment}
	for name, damage := range map[string]func(*Config){
		"Q=0":              func(c *Config) { c.MR.Q = 0 },
		"Q<1":              func(c *Config) { c.MR.Q = 0.5 },
		"Q=NaN":            func(c *Config) { c.MR.Q = math.NaN() },
		"zero scale":       func(c *Config) { c.ScalesDays = []int{1, 0, 4} },
		"negative scale":   func(c *Config) { c.ScalesDays = []int{-2} },
		"overflowing day":  func(c *Config) { c.ScalesDays = []int{1 << 40} },
		"no scales":        func(c *Config) { c.ScalesDays = nil },
		"zero window":      func(c *Config) { c.MR.WindowsDays = []int{1, 0} },
		"negative window":  func(c *Config) { c.MR.WindowsDays = []int{-1} },
		"Lambda=Inf":       func(c *Config) { c.MR.Lambda = math.Inf(1) },
		"Lambda=NaN":       func(c *Config) { c.MR.Lambda = math.NaN() },
		"zero style k":     func(c *Config) { c.StyleKs = []int{1, 0} },
		"negative style k": func(c *Config) { c.StyleKs = []int{-3} },
	} {
		parts := p.Parts()
		parts.Cfg.ScalesDays = append([]int(nil), parts.Cfg.ScalesDays...)
		parts.Cfg.StyleKs = append([]int(nil), parts.Cfg.StyleKs...)
		parts.Cfg.MR.WindowsDays = append([]int(nil), parts.Cfg.MR.WindowsDays...)
		damage(&parts.Cfg)
		if _, err := PipelineFromParts(parts); err == nil {
			t.Errorf("PipelineFromParts accepted a config with %s", name)
		}
		if _, err := NewPipeline(w.Dataset, nil, lx, parts.Cfg); err == nil {
			t.Errorf("NewPipeline accepted a config with %s", name)
		}
	}
	// Q is unused under mean pooling, so it is not required there.
	parts := p.Parts()
	parts.Cfg.MR.Q, parts.Cfg.MR.MeanPooling = 0, true
	if _, err := PipelineFromParts(parts); err != nil {
		t.Fatalf("mean pooling with Q=0 refused: %v", err)
	}
}

// BenchmarkPair measures the pair kernel both ways it is paid for:
// first-touch derives both views inside the timed call (the cold serving
// path's first sight of an account), steady pairs views already derived
// (every later partner). missing-only is steady under the want of a
// typical cold Eqn-18 candidate — the face, the 1-day bucket scale and
// every search window — which is all a declined friend pair computes.
func BenchmarkPair(b *testing.B) {
	w, p := worldAndPipeline(b, 40, 1)
	as := platformViews(b, p, w.Dataset, platform.Twitter)
	bs := platformViews(b, p, w.Dataset, platform.Facebook)
	x := linalg.NewVector(p.Dim())
	mask := make([]bool, p.Dim())
	b.Run("first-touch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			va := RestoreView(SnapshotView(as[i%len(as)]), platform.Twitter, 0)
			vb := RestoreView(SnapshotView(bs[(i*7)%len(bs)]), platform.Facebook, 0)
			b.StartTimer()
			p.PairInto(va, vb, x, mask, nil)
		}
	})
	b.Run("steady", func(b *testing.B) {
		for _, a := range as {
			p.PairInto(a, bs[0], x, mask, nil)
		}
		for _, v := range bs {
			p.PairInto(as[0], v, x, mask, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.PairInto(as[i%len(as)], bs[(i*7)%len(bs)], x, mask, nil)
		}
	})
	b.Run("missing-only", func(b *testing.B) {
		want := make([]bool, p.Dim())
		for d, name := range p.names {
			want[d] = name == "face" || p.groups[d] == "mr" || strings.HasSuffix(name, ":1d")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.PairInto(as[i%len(as)], bs[(i*7)%len(bs)], x, mask, want)
		}
	})
}

// TestPairWantIntoMatchesPairInto holds PairInto's selector exact: every
// cross-platform pair of a 40-person world, under a nil and an empty
// want, each single dimension, each feature group, each bucket scale and
// each search window, and 50 seeded random wants, must give every wanted
// dimension the bits and mask of a full PairInto and every other one
// 0/false. The buffers start dirty, so a dimension a selector forgets to
// clear shows up.
func TestPairWantIntoMatchesPairInto(t *testing.T) {
	w, p := worldAndPipeline(t, 40, 3)
	tw := platformViews(t, p, w.Dataset, platform.Twitter)
	fb := platformViews(t, p, w.Dataset, platform.Facebook)
	dim := p.Dim()
	wants := [][]bool{nil, make([]bool, dim)}
	sel := func(pick func(d int) bool) []bool {
		want := make([]bool, dim)
		for d := range want {
			want[d] = pick(d)
		}
		return want
	}
	for d := 0; d < dim; d++ {
		wants = append(wants, sel(func(e int) bool { return e == d }))
	}
	for _, g := range slices.Compact(slices.Clone(p.groups)) {
		wants = append(wants, sel(func(d int) bool { return p.groups[d] == g }))
	}
	scaleOf := func(groups []string, days int) []bool { // one scale or window, every family or sensor
		return sel(func(d int) bool {
			return slices.Contains(groups, p.groups[d]) && strings.HasSuffix(p.names[d], fmt.Sprintf(":%dd", days))
		})
	}
	for _, days := range p.cfg.ScalesDays {
		wants = append(wants, scaleOf([]string{"topic", "genre", "sentiment"}, days))
	}
	for _, days := range p.cfg.MR.WindowsDays {
		wants = append(wants, scaleOf([]string{"mr"}, days))
	}
	rng := rand.New(rand.NewPCG(7, 11))
	for k := 0; k < 50; k++ {
		density := rng.Float64()
		wants = append(wants, sel(func(int) bool { return rng.Float64() < density }))
	}

	x, mask := linalg.NewVector(dim), make([]bool, dim)
	pairs := 0
	for _, side := range [][2][]*AccountView{{tw, fb}, {fb, tw}} {
		for _, a := range side[0] {
			for _, b := range side[1] {
				full := p.Pair(a, b)
				for wi, want := range wants {
					x.Fill(math.NaN())
					for d := range mask {
						mask[d] = true
					}
					p.PairInto(a, b, x, mask, want)
					for d := range x {
						wx, wm := 0.0, false
						if want == nil || want[d] {
							wx, wm = full.X[d], full.Mask[d]
						}
						if math.Float64bits(x[d]) != math.Float64bits(wx) || mask[d] != wm {
							t.Fatalf("want #%d: %s = %v/%v, want %v/%v", wi, p.names[d], x[d], mask[d], wx, wm)
						}
					}
				}
				pairs++
			}
		}
	}
	t.Logf("%d pairs × %d wants", pairs, len(wants))
}
