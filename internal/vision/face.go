// Package vision simulates the profile-image face-matching pipeline of the
// paper's Figure 4 (which used the off-the-shelf detector/classifier of
// reference [12]). Avatars are identified by opaque ids: ids below the
// stock-image threshold encode a real face identity; ids above it are
// stock/cartoon images in which no face is detected. The simulated
// detector and classifier have configurable failure and noise rates, so the
// downstream feature behaves like a real, imperfect face matcher: it can
// abort (missing feature), false-match and false-reject.
package vision

import (
	"math/rand"
	"sync"
)

// StockImageThreshold separates real-face avatar ids (below) from
// stock/cartoon avatar ids (at or above). The synth generator allocates
// ids accordingly.
const StockImageThreshold = 1_000_000

// Matcher is the simulated face pipeline.
type Matcher struct {
	// DetectRate is the probability the face detector finds the face in a
	// real-face avatar (illumination/occlusion failures otherwise).
	DetectRate float64
	// NoiseSigma perturbs the classifier score.
	NoiseSigma float64
	// Seed drives the deterministic per-pair noise.
	Seed int64
}

// NewMatcher returns a Matcher with the calibrated default rates.
func NewMatcher(seed int64) *Matcher {
	return &Matcher{DetectRate: 0.85, NoiseSigma: 0.08, Seed: seed}
}

// rngPool recycles generators between Match calls: a math/rand source is
// 5 KB of state, and Match sits under every pair vector. A recycled
// generator is reseeded before use, which puts it in exactly the state
// of a freshly constructed one.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// pairSeed is the seed of the deterministic PRNG of an avatar pair, so
// repeated calls with the same avatars yield the same simulated pipeline
// outcome.
func (m *Matcher) pairSeed(a, b uint64) int64 {
	// Order-independent mix of the two ids with the matcher seed.
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	h := lo*0x9E3779B97F4A7C15 ^ hi*0xC2B2AE3D27D4EB4F ^ uint64(m.Seed)
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// Match runs the Figure-4 workflow on two avatar ids. The returned score is
// the classifier confidence in [0,1] that the two faces belong to the same
// person; ok is false when the pipeline aborts (no image, or no face
// detected in either image), in which case the feature is missing.
func (m *Matcher) Match(avatarA, avatarB uint64) (score float64, ok bool) {
	// "Image?" stage: missing avatar aborts.
	if avatarA == 0 || avatarB == 0 {
		return 0, false
	}
	// "Face?" stage: stock images have no face, whatever the detector
	// draws for the other image; real faces are found with DetectRate
	// probability each.
	if avatarA >= StockImageThreshold || avatarB >= StockImageThreshold {
		return 0, false
	}
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(m.pairSeed(avatarA, avatarB))
	if !m.detect(rng) || !m.detect(rng) {
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

// detect draws whether the face in one real-face avatar is found.
func (m *Matcher) detect(rng *rand.Rand) bool {
	return rng.Float64() < m.DetectRate
}
