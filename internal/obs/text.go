package obs

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
)

// Family writes one metric family of the text exposition format:
// NewFamily writes the HELP and TYPE lines, Sample and Histogram the
// sample lines under them —
//
//	obs.NewFamily(w, "hydra_shed_total", "counter", "Requests shed.").Sample(n)
//
// is a whole family in one call.
type Family struct {
	w    io.Writer
	name string
}

// NewFamily starts a family: typ is gauge, counter or histogram.
func NewFamily(w io.Writer, name, typ, help string) Family {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return Family{w, name}
}

// Sample writes one sample. labels are name, value pairs; v is an
// integer, a float (rendered %g) or a bool (rendered 0 or 1).
func (f Family) Sample(v any, labels ...string) { f.sample("", v, labels) }

func (f Family) sample(suffix string, v any, labels []string) {
	lb := ""
	for i := 0; i+1 < len(labels); i += 2 {
		lb += fmt.Sprintf(",%s=%q", labels[i], labels[i+1])
	}
	if lb != "" {
		lb = "{" + lb[1:] + "}"
	}
	if b, ok := v.(bool); ok {
		v = 0
		if b {
			v = 1
		}
	}
	fmt.Fprintf(f.w, "%s%s%s %v\n", f.name, suffix, lb, v)
}

// Histogram writes h's cumulative buckets, sum and count as the family's
// samples, each carrying labels (the bucket lines add le last).
func (f Family) Histogram(h *Histogram, labels ...string) {
	labels = labels[:len(labels):len(labels)]
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.buckets[i].Load()
		le := strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.5f", ub), "0"), ".")
		f.sample("_bucket", cum, append(labels, "le", le))
	}
	count := h.Count()
	f.sample("_bucket", count, append(labels, "le", "+Inf"))
	if h.scale == 1 {
		f.sample("_sum", h.Sum(), labels)
	} else {
		f.sample("_sum", float64(h.Sum())/h.scale, labels)
	}
	f.sample("_count", count, labels)
}

// Histogram is a fixed-bound histogram over integer observations, all
// atomic so the hot path never takes a lock. Observations are counted
// in the unit they are made in (nanoseconds, candidates) and exposed in
// the bounds' unit: scale observed units make one exposed unit.
type Histogram struct {
	bounds  []float64 // bucket upper bounds, exposed unit, ascending
	scale   float64
	buckets []atomic.Uint64 // per bound; beyond the last: count only (+Inf)
	sum     atomic.Uint64   // observed unit
	count   atomic.Uint64
}

// NewHistogram builds a histogram over the given upper bounds. With
// scale 1 the sum is exposed as the integer it is.
func NewHistogram(bounds []float64, scale float64) *Histogram {
	return &Histogram{bounds: bounds, scale: scale, buckets: make([]atomic.Uint64, len(bounds))}
}

// latencyBuckets are the duration histograms' upper bounds in seconds,
// spanning the microsecond in-process path through multi-second degraded
// fan-outs.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// newLatencyHistogram builds a histogram of durations observed in
// nanoseconds and exposed in seconds.
func newLatencyHistogram() *Histogram { return NewHistogram(latencyBuckets, 1e9) }

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	x := float64(v) / h.scale
	for i, ub := range h.bounds {
		if x <= ub {
			h.buckets[i].Add(1)
			return
		}
	}
}

// Count reports how many observations were made.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the observations' total, in the observed unit.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }
