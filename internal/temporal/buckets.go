// Package temporal implements the time-axis machinery of HYDRA's behavior
// models: the multi-scale time-bucket division of Section 5.2 (Figure 5) and
// the multi-resolution pattern-matching sensor framework of Section 5.4
// (Figure 6), including lq-norm pooling and the sigmoid calibration.
package temporal

import (
	"fmt"
	"math"
	"sync"
	"time"

	"hydra/internal/linalg"
)

// Day is the base unit of the paper's bucket scales.
const Day = 24 * time.Hour

// DefaultScalesDays are the bucket scales of Section 5.2: "we use 1, 2, 4,
// 8, 16 and 32 days in this paper to guarantee the optimal performance".
var DefaultScalesDays = []int{1, 2, 4, 8, 16, 32}

// ValidDays reports a scale or window length that is not a positive
// number of days a time.Duration can hold.
func ValidDays(days int) error {
	if days <= 0 || days > int(math.MaxInt64/Day) {
		return fmt.Errorf("%d days is outside 1..%d", days, int(math.MaxInt64/Day))
	}
	return nil
}

// Range is a closed-open time interval [Start, End).
type Range struct {
	Start, End time.Time
}

// Valid reports whether the range is non-empty and well-ordered.
func (r Range) Valid() bool { return r.End.After(r.Start) }

// Duration returns End - Start.
func (r Range) Duration() time.Duration { return r.End.Sub(r.Start) }

// Contains reports whether t lies within r.
func (r Range) Contains(t time.Time) bool { return !t.Before(r.Start) && t.Before(r.End) }

// Timeline is one account's observation times laid out for bucketing at
// every scale — the per-user half of Figure 5's time-bucket division,
// which depends on nothing but the account and is therefore built once
// per account, not once per partner. It holds no distributions: the
// bucket means are cheap to form once the grouping is known, and an
// account's means at six scales would outweigh the observations
// themselves several times over, in every account a server has ever
// paired. Immutable once built.
type Timeline struct {
	scalesDays []int
	// at[i] is observation i's offset into the range in nanoseconds, for
	// the observations that fall inside it.
	at []int64
	// order[s*m:(s+1)*m], m = len(order)/len(scalesDays), lists the
	// observations inside the range grouped by their bucket at scale s in
	// ascending bucket order, and in observation order within a bucket —
	// the order their distributions are summed in.
	order []int32
}

// NewTimeline lays out the observation times over range r for the bucket
// scales scalesDays (each a positive number of days, see ValidDays).
// Observations outside r belong to no bucket.
//
// Each scale's grouping is a stable counting sort over bucket ids, which
// gives the order a stable sort by bucket gives in O(observations +
// buckets), the buckets bounded by the range's length at that scale.
func NewTimeline(r Range, scalesDays []int, times []time.Time) Timeline {
	tl := Timeline{scalesDays: scalesDays, at: make([]int64, len(times))}
	inside := make([]int32, 0, len(times))
	var last int64
	for i, t := range times {
		if r.Contains(t) {
			tl.at[i] = int64(t.Sub(r.Start))
			inside = append(inside, int32(i))
			last = max(last, tl.at[i])
		}
	}
	m := len(inside)
	tl.order = make([]int32, len(scalesDays)*m)
	// Every scale is at least a day, so no bucket id exceeds last/Day.
	counts := make([]int32, last/int64(Day)+2)
	for s, days := range scalesDays {
		scale := int64(days) * int64(Day)
		// start[b+1] counts bucket b, then start[b] is where it begins.
		start := counts[:last/scale+2]
		clear(start)
		for _, i := range inside {
			start[tl.at[i]/scale+1]++ // bucket = r.BucketOf(times[i], scale)
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		group := tl.order[s*m : (s+1)*m]
		for _, i := range inside {
			b := tl.at[i] / scale
			group[start[b]] = i
			start[b]++
		}
	}
	return tl
}

// Similarity is a pairwise similarity between two distributions (e.g. a
// chi-square or histogram-intersection kernel evaluation).
type Similarity func(a, b linalg.Vector) float64

// meanScratch is the distribution length up to which bucket means are
// formed in recycled scratch.
const meanScratch = 64

// meanPool recycles that scratch, one buffer per user. The means are
// handed to a Similarity — an indirect call, which the compiler must
// assume retains its arguments — so they cannot live on the stack, and a
// Timeline is shared by concurrent comparisons, so not on it either.
var meanPool = sync.Pool{New: func() any { return new([2][meanScratch]float64) }}

// SimilarityInto compares two users' distribution series scale by scale,
// one family of distributions (topic, genre, sentiment, ...) after the
// other: famsA[f][i] is user A's family-f distribution at the i-th
// timestamp a was laid out from, likewise famsB and b, and both timelines
// must share range and scales. Distributions are averaged within each
// bucket — the aggregation step of Figure 5, accumulated in observation
// order and scaled by 1/count — and "the similarity of topic evolution of
// a specific scale between two users can be simply calculated by
// averaging over the similarities of all temporal intervals"; "all the
// similarities calculated using different time scales are concatenated
// into a similarity vector" (Section 5.2).
//
// x and mask are overwritten, family-major: family f at scale s is entry
// f*len(scales)+s. It is observed when at least one bucket holds
// observations of both users, and missing (zero, mask false) otherwise —
// as is every scale of a family whose length differs from its timeline's
// on either side. Buckets are visited in ascending order, so each average
// is summed in the order a bucket-by-bucket walk would sum it.
//
// want, when non-nil, selects entries in x's layout: an entry it leaves
// out comes back missing, its bucket means are never formed, and a scale
// with no selected entry is not walked at all. Scales and families share
// no state, so a selected entry carries the bits of a full call.
func (a *Timeline) SimilarityInto(b *Timeline, famsA, famsB [][]linalg.Vector, sim Similarity, x []float64, mask []bool, want []bool) {
	scales := len(a.scalesDays)
	clear(x[:len(famsA)*scales])
	clear(mask[:len(famsA)*scales])
	if scales == 0 {
		return
	}
	usable := func(f int) bool { return len(famsA[f]) == len(a.at) && len(famsB[f]) == len(b.at) }
	on := func(f, si int) bool { return usable(f) && (want == nil || want[f*scales+si]) }
	scratch := meanPool.Get().(*[2][meanScratch]float64)
	defer meanPool.Put(scratch)
	bufA, bufB := &scratch[0], &scratch[1]
	ma, mb := len(a.order)/scales, len(b.order)/scales
	for si, days := range a.scalesDays {
		walk := false
		for f := range famsA {
			walk = walk || on(f, si)
		}
		if !walk {
			continue
		}
		scale := int64(days) * int64(Day)
		oa, ob := a.order[si*ma:][:ma], b.order[si*mb:][:mb]
		matched := 0
		for len(oa) > 0 && len(ob) > 0 {
			ba, bb := a.at[oa[0]]/scale, b.at[ob[0]]/scale
			switch {
			case ba < bb:
				oa = oa[a.run(oa, ba*scale, scale):]
			case ba > bb:
				ob = ob[b.run(ob, bb*scale, scale):]
			default:
				na, nb := a.run(oa, ba*scale, scale), b.run(ob, bb*scale, scale)
				for f := range famsA {
					if on(f, si) {
						x[f*scales+si] += sim(meanInto(bufA, famsA[f], oa[:na]), meanInto(bufB, famsB[f], ob[:nb]))
					}
				}
				matched++
				oa, ob = oa[na:], ob[nb:]
			}
		}
		if matched == 0 {
			continue
		}
		for f := range famsA {
			if on(f, si) {
				x[f*scales+si] /= float64(matched)
				mask[f*scales+si] = true
			}
		}
	}
}

// run returns how many leading observations of group (one scale's, from
// the first observation of a bucket on) fall into that bucket, which
// begins at offset start.
func (tl *Timeline) run(group []int32, start, scale int64) int {
	n := 1
	for n < len(group) && tl.at[group[n]]-start < scale {
		n++
	}
	return n
}

// meanInto averages the distributions of one bucket's observations, in
// buf when they fit.
func meanInto(buf *[meanScratch]float64, dists []linalg.Vector, bucket []int32) linalg.Vector {
	first := dists[bucket[0]]
	var mean linalg.Vector
	if len(first) <= len(buf) {
		mean = buf[:len(first)]
		clear(mean)
	} else {
		mean = linalg.NewVector(len(first))
	}
	for _, i := range bucket {
		mean.AddScaled(1, dists[i])
	}
	return mean.Scale(1 / float64(len(bucket)))
}
