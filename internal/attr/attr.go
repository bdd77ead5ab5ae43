// Package attr implements the user-attribute modeling of the paper's
// Section 5.1: learning the relative importance of textual profile
// attributes from labeled pairs (Eqn 3) and producing the per-pair
// attribute-match feature components, with explicit missing-feature
// bookkeeping.
package attr

import (
	"fmt"
	"strings"

	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// Importance holds the learned relative importance scores m_t(k) of each
// attribute (Eqn 3): how indicative a match on that attribute is of a true
// linkage.
type Importance struct {
	Attrs  []platform.AttrName
	Scores linalg.Vector // normalized, sums to 1
}

// LabeledPair is a pair of profiles with a ground-truth same-person label.
type LabeledPair struct {
	A, B     *platform.Profile
	Positive bool
}

// Match reports whether two profiles agree on the attribute, with ok=false
// when the attribute is missing on either side (the paper's "missing
// feature" case).
func Match(a, b *platform.Profile, name platform.AttrName) (matched bool, ok bool) {
	va, okA := a.Attr(name)
	vb, okB := b.Attr(name)
	if !okA || !okB {
		return false, false
	}
	return equalAttr(name, va, vb), true
}

// equalAttr compares attribute values; tags match on any shared tag, bios on
// case-insensitive equality, everything else on exact equality.
func equalAttr(name platform.AttrName, va, vb string) bool {
	switch name {
	case platform.AttrTag:
		// Walk the comma-separated lists in place; splitting them would
		// allocate for every pair compared.
		for va != "" {
			var x string
			x, va, _ = strings.Cut(va, ",")
			if x == "" {
				continue
			}
			for rest := vb; rest != ""; {
				var y string
				y, rest, _ = strings.Cut(rest, ",")
				if x == y {
					return true
				}
			}
		}
		return false
	default:
		return strings.EqualFold(va, vb)
	}
}

// LearnImportance estimates attribute importance from labeled pairs by data
// counting (Eqn 3):
//
//	m_t(k) = PD(k) / (PD(k) + ND(k)),  then smoothed and normalized with ε.
//
// PD(k) counts positive pairs matched on attribute k; ND(k) counts negative
// pairs matched on k. Pairs where the attribute is missing on either side
// contribute to neither count.
func LearnImportance(pairs []LabeledPair, attrs []platform.AttrName, epsilon float64) (*Importance, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("attr: no attributes given")
	}
	if epsilon <= 0 {
		epsilon = 1e-3
	}
	pd := make([]float64, len(attrs))
	nd := make([]float64, len(attrs))
	for _, pair := range pairs {
		for k, name := range attrs {
			matched, ok := Match(pair.A, pair.B, name)
			if !ok || !matched {
				continue
			}
			if pair.Positive {
				pd[k]++
			} else {
				nd[k]++
			}
		}
	}
	raw := linalg.NewVector(len(attrs))
	for k := range attrs {
		if pd[k]+nd[k] > 0 {
			raw[k] = pd[k] / (pd[k] + nd[k])
		}
	}
	// Smooth and normalize: m_t(k) = (m_t(k)+ε) / (Σ m_t(k') + MA·ε).
	denom := raw.Sum() + float64(len(attrs))*epsilon
	scores := linalg.NewVector(len(attrs))
	for k := range attrs {
		scores[k] = (raw[k] + epsilon) / denom
	}
	return &Importance{Attrs: attrs, Scores: scores}, nil
}

// PairFeaturesInto writes the importance-weighted attribute-match
// feature vector of a profile pair and its observation mask into the
// first len(im.Attrs) entries of vec and mask. Feature k is
// m_t(k)·1[match on attribute k]; mask[k] is false (and vec[k] zero) when
// attribute k is missing on either profile.
func (im *Importance) PairFeaturesInto(a, b *platform.Profile, vec linalg.Vector, mask []bool) {
	for k, name := range im.Attrs {
		vec[k], mask[k] = 0, false
		matched, ok := Match(a, b, name)
		if !ok {
			continue
		}
		mask[k] = true
		if matched {
			vec[k] = im.Scores[k] * float64(len(im.Attrs))
		}
	}
}
