package temporal

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Event is a timestamped behavioral observation fed to pattern-matching
// sensors: a location check-in (Lat/Lon set) or a media posting/sharing
// action (MediaID set).
type Event struct {
	Time    time.Time
	Lat     float64
	Lon     float64
	MediaID uint64 // content fingerprint; 0 when not a media event
}

// Stream is one account's event stream prepared for window scans — the
// per-user half of Figure 6: the events in chronological order, stamped
// in int64 nanoseconds, with the per-event terms the sensors would
// otherwise recompute against every partner. It is a copy: the caller's
// slice is shared across concurrent pair computations and is never
// sorted in place. Immutable once built.
type Stream []streamEvent

// streamEvent is one Event as the scan reads it.
type streamEvent struct {
	// ns is Event.Time.UnixNano() — the same representation (and the same
	// 1678–2262 range) as the bundle format stores event times in.
	ns       int64
	lat, lon float64
	cosLat   float64 // math.Cos of the latitude in radians (location events)
	media    uint64
}

// NewStream prepares evs. Events already in time order keep their order;
// otherwise a copy is sorted with sort.Slice, whose placement of
// equal-timestamp events decides which of them meet in a window and is
// therefore part of every pair vector ever computed.
func NewStream(evs []Event) Stream {
	sorted := true
	for i := 1; i < len(evs); i++ {
		if evs[i].Time.Before(evs[i-1].Time) {
			sorted = false
			break
		}
	}
	if !sorted {
		evs = append([]Event(nil), evs...)
		sort.Slice(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	}
	st := make(Stream, len(evs))
	for i, e := range evs {
		st[i] = streamEvent{ns: e.Time.UnixNano(), lat: e.Lat, lon: e.Lon, media: e.MediaID}
		if e.MediaID == 0 {
			st[i].cosLat = math.Cos(toRad(e.Lat))
		}
	}
	return st
}

// Sensor detects matched behavior patterns between two users' event
// streams within a temporal search window: one stimulation signal per
// window in which both users were active.
type Sensor interface {
	// Name identifies the sensor (one similarity-vector dimension per
	// sensor and window).
	Name() string
	// stimulate returns the sensor's signal in [0,1] for one window holding
	// the events ea of one user and eb of the other (both non-empty), or a
	// negative value when the window holds nothing this sensor reads on
	// one of the sides.
	stimulate(ea, eb Stream) float64
}

// LocationSensor is the paper's location matching sensor: "calculates
// location adjacency by a Gaussian kernel on geo-coordinates of user i and
// user i′ within the predefined spatial range".
type LocationSensor struct {
	// SigmaKm is the Gaussian bandwidth over great-circle distance in km
	// (≤ 0 selects the default of 5).
	SigmaKm float64
}

// Name implements Sensor.
func (s LocationSensor) Name() string { return "location" }

// stimulate implements Sensor: the maximum Gaussian location adjacency
// over all cross pairs of check-ins, 0 when a side has none.
func (s LocationSensor) stimulate(ea, eb Stream) float64 {
	sigma := s.SigmaKm
	if sigma <= 0 {
		sigma = 5
	}
	best := 0.0
	for i := range ea {
		x := &ea[i]
		if x.media != 0 {
			continue
		}
		for j := range eb {
			y := &eb[j]
			if y.media != 0 {
				continue
			}
			d := haversineKm(y.lat-x.lat, y.lon-x.lon, x.cosLat, y.cosLat)
			v := math.Exp(-d * d / (2 * sigma * sigma))
			if v > best {
				best = v
			}
		}
	}
	return best
}

// MediaSensor is the near-duplicate multimedia sensor: two events match when
// their content fingerprints coincide (the fingerprint plays the role of the
// near-duplicate image detector / down-sampling method [9] in the paper).
type MediaSensor struct{}

// Name implements Sensor.
func (MediaSensor) Name() string { return "media" }

// stimulate implements Sensor: 1 if any media fingerprint is shared, else
// 0; windows where either side has no media events do not apply.
func (MediaSensor) stimulate(ea, eb Stream) float64 {
	hasA := false
	for i := range ea {
		if ea[i].media != 0 {
			hasA = true
			break
		}
	}
	if !hasA {
		return -1
	}
	hasB := false
	for j := range eb {
		id := eb[j].media
		if id == 0 {
			continue
		}
		hasB = true
		for i := range ea {
			if ea[i].media == id {
				return 1
			}
		}
	}
	if !hasB {
		return -1
	}
	return 0
}

// windowScan slides a tumbling window across the union time span of two
// streams, starting at the earlier stream's first event, and yields the
// events of every window in which both users were active. Windows where
// either side is empty produce nothing — that is the "missing
// information" the multi-resolution model is designed to tolerate — so
// the scan jumps from one event-bearing window straight to the next
// instead of stepping through the empty ones between them.
type windowScan struct {
	a, b   Stream
	start  int64
	window uint64
}

func newWindowScan(a, b Stream, window time.Duration) windowScan {
	if len(a) == 0 || len(b) == 0 || window <= 0 {
		return windowScan{}
	}
	return windowScan{a: a, b: b, start: min(a[0].ns, b[0].ns), window: uint64(window)}
}

// next returns the two sides of the next window holding events of both,
// ok false once there is none.
func (ws *windowScan) next() (ea, eb Stream, ok bool) {
	for len(ws.a) > 0 && len(ws.b) > 0 {
		// Offsets from start are taken in uint64, where the difference of
		// any two int64 stamps is exact; last is the final nanosecond of
		// the window holding the earliest unread event.
		k := ws.since(min(ws.a[0].ns, ws.b[0].ns)) / ws.window
		last := k*ws.window + (ws.window - 1)
		if last < k*ws.window {
			last = math.MaxUint64
		}
		ea, ws.a = ws.cut(ws.a, last)
		eb, ws.b = ws.cut(ws.b, last)
		if len(ea) > 0 && len(eb) > 0 {
			return ea, eb, true
		}
	}
	return nil, nil, false
}

func (ws *windowScan) since(ns int64) uint64 { return uint64(ns) - uint64(ws.start) }

// cut splits st after its events up to offset last.
func (ws *windowScan) cut(st Stream, last uint64) (in, rest Stream) {
	n := 0
	for n < len(st) && ws.since(st[n].ns) <= last {
		n++
	}
	return st[:n], st[n:]
}

func toRad(deg float64) float64 { return deg * math.Pi / 180 }

// haversineKm returns the great-circle distance in kilometers between two
// lat/lon points, given their coordinate differences in degrees and the
// cosines of the two latitudes, which depend on one point each.
func haversineKm(dLatDeg, dLonDeg, cosLat1, cosLat2 float64) float64 {
	const earthRadiusKm = 6371
	sinLat := math.Sin(toRad(dLatDeg) / 2)
	sinLon := math.Sin(toRad(dLonDeg) / 2)
	h := sinLat*sinLat + cosLat1*cosLat2*sinLon*sinLon
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// pool accumulates stimulation signals one at a time: Eqn 5's lq-norm
// pooling S = (1/N · Σ s_iᵠ)^(1/q), or plain averaging (the ablation),
// summed in arrival order without holding the signals.
type pool struct {
	q    float64
	mean bool
	acc  float64
	n    int
}

func (p *pool) add(s float64) {
	if p.mean {
		p.acc += s
	} else {
		p.acc += math.Pow(s, p.q)
	}
	p.n++
}

// value returns the pooled signal, 0 over no signals.
func (p *pool) value() float64 {
	switch {
	case p.n == 0:
		return 0
	case p.mean:
		return p.acc / float64(p.n)
	default:
		return math.Pow(p.acc/float64(p.n), 1/p.q)
	}
}

// Sigmoid is the nonlinear transformation Ŝ = 1/(1+e^{-λS}) of Section 5.4.
func Sigmoid(s, lambda float64) float64 {
	return 1 / (1 + math.Exp(-lambda*s))
}

// MultiResolutionConfig parameterizes the full Figure-6 pipeline.
type MultiResolutionConfig struct {
	// WindowsDays are the temporal search ranges of the sensor bank
	// ("Scale 1 … Scale 5" in Figure 6).
	WindowsDays []int
	// Q is the lq-pooling exponent (≥ 1).
	Q float64
	// Lambda is the sigmoid steepness.
	Lambda float64
	// MeanPooling switches to mean pooling (ablation).
	MeanPooling bool
}

// DefaultMultiResolutionConfig mirrors the paper's five temporal scales.
func DefaultMultiResolutionConfig() MultiResolutionConfig {
	return MultiResolutionConfig{WindowsDays: []int{1, 2, 4, 8, 16}, Q: 4, Lambda: 4}
}

// Validate reports a configuration the sensor bank cannot run: a window
// that is not a positive, representable number of days, a pooling
// exponent below 1 (unless mean pooling replaces it) or a non-finite
// sigmoid steepness.
func (cfg MultiResolutionConfig) Validate() error {
	for _, days := range cfg.WindowsDays {
		if err := ValidDays(days); err != nil {
			return fmt.Errorf("temporal: search window: %w", err)
		}
	}
	if !cfg.MeanPooling && !(cfg.Q >= 1) {
		return fmt.Errorf("temporal: lq pooling requires q >= 1, got %g", cfg.Q)
	}
	if math.IsNaN(cfg.Lambda) || math.IsInf(cfg.Lambda, 0) {
		return fmt.Errorf("temporal: sigmoid steepness %g is not finite", cfg.Lambda)
	}
	return nil
}

// MatchInto runs every sensor at every temporal window over two users'
// streams, pools each run's stimulation signals (Eqn 5), applies the
// sigmoid and writes the multi-dimensional pattern-matching feature:
// x[i] and mask[i] are set where sensor and window produced a signal and
// left alone where they produced none (missing information). cfg must
// have passed Validate.
//
// The output layout is sensor-major: [s0w0, s0w1, ..., s1w0, ...]. Every
// sensor sees the same windows, so each window size is scanned once and
// every sensor's pool is fed in window order — the order, and therefore
// the bits, of one scan per sensor.
//
// want, when non-nil, selects entries in x's layout: a sensor it leaves
// out of a window is never stimulated there and its entry is left alone,
// and a window with no selected sensor is not scanned at all. Windows
// and sensors share no state, so a selected entry carries the bits of a
// full call.
func (cfg MultiResolutionConfig) MatchInto(sensors []Sensor, a, b Stream, x []float64, mask []bool, want []bool) {
	var stack [4]pool // the pair pipeline runs two sensors
	pools := stack[:]
	if len(sensors) > len(stack) {
		pools = make([]pool, len(sensors))
	}
	pools = pools[:len(sensors)]
	nw := len(cfg.WindowsDays)
	on := func(si, wi int) bool { return want == nil || want[si*nw+wi] }
	for wi, days := range cfg.WindowsDays {
		scan := false
		for si := range pools {
			pools[si] = pool{q: cfg.Q, mean: cfg.MeanPooling}
			scan = scan || on(si, wi)
		}
		if !scan {
			continue
		}
		ws := newWindowScan(a, b, time.Duration(days)*Day)
		for ea, eb, ok := ws.next(); ok; ea, eb, ok = ws.next() {
			for si, sensor := range sensors {
				if !on(si, wi) {
					continue
				}
				if v := sensor.stimulate(ea, eb); v >= 0 {
					pools[si].add(v)
				}
			}
		}
		for si := range pools {
			if pools[si].n == 0 {
				continue
			}
			idx := si*nw + wi
			x[idx] = Sigmoid(pools[si].value(), cfg.Lambda)
			mask[idx] = true
		}
	}
}
