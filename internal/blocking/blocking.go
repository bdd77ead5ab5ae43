// Package blocking implements candidate-pair generation: the rule-based
// filtering of the paper's Section 3, which classifies user pairs into
// ground-truth linked pairs, pre-matched pairs (rule-based filtering over
// partial username overlap, attribute matching and profile-image face
// matching) and unlabeled candidate pairs. Without it the SIL search space
// is the intractable Eqn 2.
package blocking

import (
	"sort"

	"hydra/internal/platform"
	"hydra/internal/text"
	"hydra/internal/vision"
)

// Candidate is a candidate account pair with its cheap blocking score.
type Candidate struct {
	// A and B are local account ids on the two platforms.
	A, B int
	// Score is the cheap rule score used for ranking.
	Score float64
	// PreMatched marks pairs passing the strict rule filter — the paper's
	// "pre-matched pairs by rule-based filtering", used as (noisy) positive
	// labels alongside ground truth.
	PreMatched bool
}

// Rules parameterizes the filter.
type Rules struct {
	// TopK candidate pairs are kept per A-side account (by Score).
	TopK int
	// MinScore additionally admits any pair scoring at least this much.
	MinScore float64
	// PreMatchJW is the username Jaro-Winkler threshold for pre-matching.
	PreMatchJW float64
	// PreMatchAttrs is the minimum matched-attribute count for
	// pre-matching (combined with the username threshold).
	PreMatchAttrs int
	// PreMatchFace is the face-classifier score threshold that pre-matches
	// a pair on its own (paper: "user profile image matching by face
	// recognition techniques").
	PreMatchFace float64
	// Workers pins the parallelism of the O(N_A · N_B) scoring pass
	// (≤ 0 = all cores). Any setting yields the identical candidate set.
	Workers int
}

// DefaultRules returns the calibrated filter.
func DefaultRules() Rules {
	return Rules{
		TopK:          3,
		MinScore:      0.75,
		PreMatchJW:    0.90,
		PreMatchAttrs: 2,
		PreMatchFace:  0.85,
	}
}

// Generate produces the candidate pairs between two platforms: BuildIndex's
// rows, flattened and sorted by (A, B). The cost is O(N_A · N_B) cheap
// comparisons — the quadratic pass the paper's filtering makes tractable
// by never touching the expensive behavioral features.
func Generate(pa, pb *platform.Platform, faces *vision.Matcher, rules Rules) ([]Candidate, error) {
	ix, err := BuildIndex(pa, pb, faces, rules)
	if err != nil {
		return nil, err
	}
	var kept []Candidate
	for _, row := range ix.byA {
		kept = append(kept, row...)
	}
	// A row holds no duplicates and its A id is the row, so (A, B) is a
	// total order on the kept set.
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].A != kept[j].A {
			return kept[i].A < kept[j].A
		}
		return kept[i].B < kept[j].B
	})
	return kept, nil
}

// appendRowCandidates scores A-side account ai against every B-side
// account and appends the qualifying candidates to dst in the order the
// sequential filter keeps them: score-rank order down to the TopK/MinScore
// cut, then any pre-matches below it. Duplicates (a pre-match inside the
// cut would otherwise appear twice) are removed. scored is reusable
// scratch; it is re-sliced to hold N_B entries.
func appendRowCandidates(dst []Candidate, pa, pb *platform.Platform, faces *vision.Matcher, rules Rules, ai int, scored []Candidate) []Candidate {
	accA := pa.Accounts[ai]
	scored = scored[:0]
	for _, accB := range pb.Accounts {
		scored = append(scored, scorePair(accA, accB, faces, rules))
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].B < scored[j].B
	})
	base := len(dst)
	for rank, c := range scored {
		if rank < rules.TopK || c.Score >= rules.MinScore || c.PreMatched {
			dst = append(dst, c)
		} else {
			break // sorted: nothing below can qualify except pre-matches
		}
	}
	cut := len(dst) - base // ranks [0, cut) were kept above
	// Pre-matches below the cut still qualify.
	for rank := rules.TopK; rank < len(scored); rank++ {
		if rank < cut {
			continue // already kept by the ranked loop
		}
		if c := scored[rank]; c.PreMatched {
			dst = append(dst, c)
		}
	}
	return dst
}

// scorePair computes the cheap rule score and the pre-match decision.
func scorePair(a, b *platform.Account, faces *vision.Matcher, rules Rules) Candidate {
	jw := text.JaroWinkler(a.Profile.Username, b.Profile.Username)
	ov := text.UsernameOverlap(a.Profile.Username, b.Profile.Username)
	matches := 0
	checked := 0
	for _, name := range platform.MatchAttrs {
		va, okA := a.Profile.Attr(name)
		vb, okB := b.Profile.Attr(name)
		if !okA || !okB {
			continue
		}
		checked++
		if va == vb {
			matches++
		}
	}
	attrFrac := 0.0
	if checked > 0 {
		attrFrac = float64(matches) / float64(checked)
	}
	faceScore, faceOK := 0.0, false
	if faces != nil {
		faceScore, faceOK = faces.Match(a.Profile.AvatarID, b.Profile.AvatarID)
	}
	score := 0.35*jw + 0.25*ov + 0.25*attrFrac
	if faceOK {
		score += 0.15 * faceScore
	}
	// Email equality is near-unique evidence.
	ea, okEA := a.Profile.Attr(platform.AttrEmail)
	eb, okEB := b.Profile.Attr(platform.AttrEmail)
	emailMatch := okEA && okEB && ea == eb

	pre := emailMatch ||
		(jw >= rules.PreMatchJW && matches >= rules.PreMatchAttrs) ||
		(faceOK && faceScore >= rules.PreMatchFace && jw >= 0.6)
	return Candidate{A: a.Local, B: b.Local, Score: score, PreMatched: pre}
}

// Stats summarizes a candidate set against ground truth (for tests and
// experiment reporting).
type Stats struct {
	NumCandidates  int
	NumPreMatched  int
	TruePairsTotal int // persons with accounts on both platforms
	TruePairsKept  int // true pairs surviving the filter
	PrePrecision   float64
}

// Evaluate computes blocking statistics using the dataset's ground truth.
func Evaluate(ds *platform.Dataset, paID, pbID platform.ID, cands []Candidate) Stats {
	st := Stats{NumCandidates: len(cands)}
	truePairs := 0
	for person := range ds.PersonAccounts {
		if _, okA := ds.AccountOf(person, paID); okA {
			if _, okB := ds.AccountOf(person, pbID); okB {
				truePairs++
			}
		}
	}
	st.TruePairsTotal = truePairs
	preCorrect := 0
	for _, c := range cands {
		same := ds.SamePerson(paID, c.A, pbID, c.B)
		if same {
			st.TruePairsKept++
		}
		if c.PreMatched {
			st.NumPreMatched++
			if same {
				preCorrect++
			}
		}
	}
	if st.NumPreMatched > 0 {
		st.PrePrecision = float64(preCorrect) / float64(st.NumPreMatched)
	}
	return st
}
