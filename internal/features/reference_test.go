package features

// The frozen reference pair kernel. Everything below is the code that
// computed pair vectors before the per-account work moved onto the view
// (Pipeline.Pair and its helpers, temporal.MultiScaleSimilarity,
// MultiResolutionMatch, scanWindows, chronological, both sensors' Match
// bodies, the dense bucket aggregation and pooling they ran on, and the
// attribute, face and username matchers Pair called), moved here
// verbatim and renamed ref*. It redoes every per-account step for every
// partner, allocates freely and is never called by the product; it
// exists because the bench oracle and the served engine share one pair
// kernel, so only an independent implementation can notice that kernel
// drifting. Do not "fix" or speed it up: its value is that it does not
// change.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/temporal"
	"hydra/internal/vision"
)

// refSensor is the sensor interface the reference kernel scanned with.
type refSensor interface {
	Match(a, b []temporal.Event, window time.Duration) []float64
}

func refPairSensors(cfg Config) []refSensor {
	return []refSensor{
		refLocationSensor{SigmaKm: cfg.LocationSigmaKm},
		refMediaSensor{},
	}
}

func refPair(p *Pipeline, a, b *AccountView) PairVector {
	dim := p.Dim()
	x := linalg.NewVector(dim)
	mask := make([]bool, dim)
	idx := 0

	// 1. Attributes.
	av, am := refPairFeatures(p, a, b)
	copy(x[idx:], av)
	copy(mask[idx:], am)
	idx += len(av)

	// 2. Face.
	if score, ok := refFaceMatch(p.faces, a.Acc.Profile.AvatarID, b.Acc.Profile.AvatarID); ok {
		x[idx] = score
		mask[idx] = true
	}
	idx++

	// 3. Username similarity (always observed).
	ua, ub := a.Acc.Profile.Username, b.Acc.Profile.Username
	x[idx] = refJaroWinkler(ua, ub)
	mask[idx] = true
	idx++
	x[idx] = refUsernameOverlap(ua, ub)
	mask[idx] = true
	idx++

	// 4-6. Multi-scale distribution similarities.
	idx = refMultiScale(p, x, mask, idx, a.PostTimes, a.TopicDists, b.PostTimes, b.TopicDists)
	idx = refMultiScale(p, x, mask, idx, a.PostTimes, a.GenreDists, b.PostTimes, b.GenreDists)
	idx = refMultiScale(p, x, mask, idx, a.PostTimes, a.SentDists, b.PostTimes, b.SentDists)

	// 7. Style: S_lea = #matched / k for k in StyleKs (Eqn 4). Missing when
	// either account has no unique words at all (no posts).
	for _, k := range p.cfg.StyleKs {
		if len(a.Unique) == 0 || len(b.Unique) == 0 {
			idx++
			continue
		}
		x[idx] = refStyleSim(a.Unique, b.Unique, k)
		mask[idx] = true
		idx++
	}

	// 8. Multi-resolution behavior matching.
	sensors := refPairSensors(p.cfg)
	mr, mrMask, err := refMultiResolutionMatch(sensors, p.cfg.MR, a.Acc.Events, b.Acc.Events)
	if err == nil {
		copy(x[idx:], mr)
		copy(mask[idx:], mrMask)
	}
	idx += len(sensors) * len(p.cfg.MR.WindowsDays)

	if idx != dim {
		panic(fmt.Sprintf("features: assembled %d dims, expected %d", idx, dim))
	}
	return PairVector{X: x, Mask: mask}
}

// --- attr/attr.go, as it was ---

func refPairFeatures(p *Pipeline, a, b *AccountView) (linalg.Vector, []bool) {
	im := p.importance
	vec := linalg.NewVector(len(im.Attrs))
	mask := make([]bool, len(im.Attrs))
	for k, name := range im.Attrs {
		matched, ok := refAttrMatch(&a.Acc.Profile, &b.Acc.Profile, name)
		if !ok {
			continue
		}
		mask[k] = true
		if matched {
			vec[k] = im.Scores[k] * float64(len(im.Attrs))
		}
	}
	return vec, mask
}

func refAttrMatch(a, b *platform.Profile, name platform.AttrName) (matched bool, ok bool) {
	va, okA := a.Attr(name)
	vb, okB := b.Attr(name)
	if !okA || !okB {
		return false, false
	}
	return refEqualAttr(name, va, vb), true
}

func refEqualAttr(name platform.AttrName, va, vb string) bool {
	switch name {
	case platform.AttrTag:
		sa := strings.Split(va, ",")
		sb := strings.Split(vb, ",")
		for _, x := range sa {
			for _, y := range sb {
				if x != "" && x == y {
					return true
				}
			}
		}
		return false
	default:
		return strings.EqualFold(va, vb)
	}
}

// --- vision/face.go, as it was ---

func refPairRand(m *vision.Matcher, a, b uint64) *rand.Rand {
	// Order-independent mix of the two ids with the matcher seed.
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	h := lo*0x9E3779B97F4A7C15 ^ hi*0xC2B2AE3D27D4EB4F ^ uint64(m.Seed)
	return rand.New(rand.NewSource(int64(h & 0x7FFFFFFFFFFFFFFF)))
}

func refFaceMatch(m *vision.Matcher, avatarA, avatarB uint64) (score float64, ok bool) {
	// "Image?" stage: missing avatar aborts.
	if avatarA == 0 || avatarB == 0 {
		return 0, false
	}
	rng := refPairRand(m, avatarA, avatarB)
	// "Face?" stage: stock images have no face; real faces are found with
	// DetectRate probability each.
	if !refDetect(m, avatarA, rng) || !refDetect(m, avatarB, rng) {
		return 0, false
	}
	// Classifier stage: same identity scores high, different low, both with
	// noise.
	var base float64
	if avatarA == avatarB {
		base = 0.92
	} else {
		base = 0.12
	}
	score = base + rng.NormFloat64()*m.NoiseSigma
	if score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	return score, true
}

func refDetect(m *vision.Matcher, avatar uint64, rng *rand.Rand) bool {
	if avatar >= vision.StockImageThreshold {
		return false // stock/cartoon image: no face
	}
	return rng.Float64() < m.DetectRate
}

// --- text/similarity.go, as it was ---

func refJaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

func refJaroWinkler(a, b string) float64 {
	j := refJaro(a, b)
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

func refLongestCommonSubstring(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	best := 0
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	return best
}

func refUsernameOverlap(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 || lb == 0 {
		return 0
	}
	shorter := la
	if lb < shorter {
		shorter = lb
	}
	return float64(refLongestCommonSubstring(a, b)) / float64(shorter)
}

// --- features.go, as it was (continued) ---

func refMultiScale(p *Pipeline, x linalg.Vector, mask []bool, idx int,
	ta []time.Time, da []linalg.Vector, tb []time.Time, db []linalg.Vector) int {

	vec, m, err := refMultiScaleSimilarity(p.span, p.cfg.ScalesDays, ta, da, tb, db, p.topicSim)
	if err == nil {
		copy(x[idx:], vec)
		copy(mask[idx:], m)
	}
	return idx + len(p.cfg.ScalesDays)
}

func refStyleSim(ua, ub []string, k int) float64 {
	ka, kb := k, k
	if ka > len(ua) {
		ka = len(ua)
	}
	if kb > len(ub) {
		kb = len(ub)
	}
	set := make(map[string]bool, ka)
	for _, w := range ua[:ka] {
		set[w] = true
	}
	matched := 0
	for _, w := range ub[:kb] {
		if set[w] {
			matched++
		}
	}
	return float64(matched) / float64(k)
}

// --- temporal/buckets.go, as it was ---

type refDistSeries struct {
	Scale   time.Duration
	Buckets []linalg.Vector
}

func refNumBuckets(r temporal.Range, scale time.Duration) int {
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

func refBucketOf(r temporal.Range, t time.Time, scale time.Duration) int {
	if !r.Contains(t) {
		return -1
	}
	return int(t.Sub(r.Start) / scale)
}

func refAggregateDistributions(r temporal.Range, scale time.Duration, times []time.Time, dists []linalg.Vector) (refDistSeries, error) {
	if len(times) != len(dists) {
		return refDistSeries{}, fmt.Errorf("temporal: %d times but %d distributions", len(times), len(dists))
	}
	n := refNumBuckets(r, scale)
	out := refDistSeries{Scale: scale, Buckets: make([]linalg.Vector, n)}
	counts := make([]int, n)
	for i, t := range times {
		b := refBucketOf(r, t, scale)
		if b < 0 {
			continue
		}
		if out.Buckets[b] == nil {
			out.Buckets[b] = linalg.NewVector(len(dists[i]))
		}
		out.Buckets[b].AddScaled(1, dists[i])
		counts[b]++
	}
	for b, c := range counts {
		if c > 0 {
			out.Buckets[b].Scale(1 / float64(c))
		}
	}
	return out, nil
}

func refSeriesSimilarity(a, b refDistSeries, sim temporal.Similarity) (value float64, coverage float64, ok bool) {
	n := len(a.Buckets)
	if len(b.Buckets) < n {
		n = len(b.Buckets)
	}
	if n == 0 {
		return 0, 0, false
	}
	var total float64
	matched := 0
	for i := 0; i < n; i++ {
		if a.Buckets[i] == nil || b.Buckets[i] == nil {
			continue
		}
		total += sim(a.Buckets[i], b.Buckets[i])
		matched++
	}
	if matched == 0 {
		return 0, 0, false
	}
	return total / float64(matched), float64(matched) / float64(n), true
}

func refMultiScaleSimilarity(r temporal.Range, scalesDays []int, timesA []time.Time, distsA []linalg.Vector,
	timesB []time.Time, distsB []linalg.Vector, sim temporal.Similarity) (vec linalg.Vector, mask []bool, err error) {

	vec = linalg.NewVector(len(scalesDays))
	mask = make([]bool, len(scalesDays))
	for si, days := range scalesDays {
		scale := time.Duration(days) * temporal.Day
		sa, err := refAggregateDistributions(r, scale, timesA, distsA)
		if err != nil {
			return nil, nil, err
		}
		sb, err := refAggregateDistributions(r, scale, timesB, distsB)
		if err != nil {
			return nil, nil, err
		}
		v, _, ok := refSeriesSimilarity(sa, sb, sim)
		if ok {
			vec[si] = v
			mask[si] = true
		}
	}
	return vec, mask, nil
}

// --- temporal/sensor.go, as it was ---

type refLocationSensor struct {
	SigmaKm float64
}

func (s refLocationSensor) Match(a, b []temporal.Event, window time.Duration) []float64 {
	sigma := s.SigmaKm
	if sigma <= 0 {
		sigma = 5
	}
	return refScanWindows(a, b, window, func(ea, eb []temporal.Event) float64 {
		best := 0.0
		for _, x := range ea {
			if x.MediaID != 0 {
				continue
			}
			for _, y := range eb {
				if y.MediaID != 0 {
					continue
				}
				d := refHaversineKm(x.Lat, x.Lon, y.Lat, y.Lon)
				v := math.Exp(-d * d / (2 * sigma * sigma))
				if v > best {
					best = v
				}
			}
		}
		return best
	})
}

type refMediaSensor struct{}

func (refMediaSensor) Match(a, b []temporal.Event, window time.Duration) []float64 {
	return refScanWindows(a, b, window, func(ea, eb []temporal.Event) float64 {
		seen := make(map[uint64]bool)
		hasA := false
		for _, x := range ea {
			if x.MediaID != 0 {
				seen[x.MediaID] = true
				hasA = true
			}
		}
		if !hasA {
			return -1 // no media on side A: window not applicable
		}
		hasB := false
		for _, y := range eb {
			if y.MediaID != 0 {
				hasB = true
				if seen[y.MediaID] {
					return 1
				}
			}
		}
		if !hasB {
			return -1
		}
		return 0
	})
}

func refScanWindows(a, b []temporal.Event, window time.Duration, f func(ea, eb []temporal.Event) float64) []float64 {
	if len(a) == 0 || len(b) == 0 || window <= 0 {
		return nil
	}
	// Never sort the caller's slices in place: event streams are shared
	// across concurrent pair computations. Streams are almost always
	// already chronological, so the copy is rarely taken.
	a = refChronological(a)
	b = refChronological(b)
	start := a[0].Time
	if b[0].Time.Before(start) {
		start = b[0].Time
	}
	end := a[len(a)-1].Time
	if b[len(b)-1].Time.After(end) {
		end = b[len(b)-1].Time
	}
	end = end.Add(time.Nanosecond) // make the last event inclusive

	var signals []float64
	ia, ib := 0, 0
	for t := start; t.Before(end); t = t.Add(window) {
		wEnd := t.Add(window)
		ea := refSliceWindow(a, &ia, wEnd)
		eb := refSliceWindow(b, &ib, wEnd)
		if len(ea) == 0 || len(eb) == 0 {
			continue
		}
		if v := f(ea, eb); v >= 0 {
			signals = append(signals, v)
		}
	}
	return signals
}

func refChronological(evs []temporal.Event) []temporal.Event {
	sorted := true
	for i := 1; i < len(evs); i++ {
		if evs[i].Time.Before(evs[i-1].Time) {
			sorted = false
			break
		}
	}
	if sorted {
		return evs
	}
	cp := append([]temporal.Event(nil), evs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Time.Before(cp[j].Time) })
	return cp
}

func refSliceWindow(evs []temporal.Event, idx *int, wEnd time.Time) []temporal.Event {
	lo := *idx
	for *idx < len(evs) && evs[*idx].Time.Before(wEnd) {
		*idx++
	}
	return evs[lo:*idx]
}

func refHaversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKm = 6371
	toRad := func(deg float64) float64 { return deg * math.Pi / 180 }
	dLat := toRad(lat2 - lat1)
	dLon := toRad(lon2 - lon1)
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(toRad(lat1))*math.Cos(toRad(lat2))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

func refLqPool(signals []float64, q float64) (float64, error) {
	if q < 1 {
		return 0, fmt.Errorf("temporal: lq pooling requires q >= 1, got %g", q)
	}
	if len(signals) == 0 {
		return 0, nil
	}
	var acc float64
	for _, s := range signals {
		if s < 0 {
			return 0, fmt.Errorf("temporal: negative stimulation signal %g", s)
		}
		acc += math.Pow(s, q)
	}
	return math.Pow(acc/float64(len(signals)), 1/q), nil
}

func refMeanPool(signals []float64) float64 {
	if len(signals) == 0 {
		return 0
	}
	var acc float64
	for _, s := range signals {
		acc += s
	}
	return acc / float64(len(signals))
}

func refSigmoid(s, lambda float64) float64 {
	return 1 / (1 + math.Exp(-lambda*s))
}

func refMultiResolutionMatch(sensors []refSensor, cfg temporal.MultiResolutionConfig, a, b []temporal.Event) (linalg.Vector, []bool, error) {
	nw := len(cfg.WindowsDays)
	vec := linalg.NewVector(len(sensors) * nw)
	mask := make([]bool, len(sensors)*nw)
	for si, sensor := range sensors {
		for wi, days := range cfg.WindowsDays {
			window := time.Duration(days) * temporal.Day
			signals := sensor.Match(a, b, window)
			if len(signals) == 0 {
				continue
			}
			var pooled float64
			if cfg.MeanPooling {
				pooled = refMeanPool(signals)
			} else {
				var err error
				pooled, err = refLqPool(signals, cfg.Q)
				if err != nil {
					return nil, nil, err
				}
			}
			idx := si*nw + wi
			vec[idx] = refSigmoid(pooled, cfg.Lambda)
			mask[idx] = true
		}
	}
	return vec, mask, nil
}
