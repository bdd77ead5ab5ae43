package attr

import (
	"math"
	"testing"

	"hydra/internal/linalg"
	"hydra/internal/platform"
)

func prof(attrs map[platform.AttrName]string) *platform.Profile {
	return &platform.Profile{Attrs: attrs}
}

func TestMatch(t *testing.T) {
	a := prof(map[platform.AttrName]string{platform.AttrJob: "engineer", platform.AttrCity: "beijing"})
	b := prof(map[platform.AttrName]string{platform.AttrJob: "Engineer"})
	matched, ok := Match(a, b, platform.AttrJob)
	if !ok || !matched {
		t.Fatal("case-insensitive match failed")
	}
	if _, ok := Match(a, b, platform.AttrCity); ok {
		t.Fatal("missing attr on b should give ok=false")
	}
	if _, ok := Match(a, b, platform.AttrEmail); ok {
		t.Fatal("missing attr on both should give ok=false")
	}
}

func TestMatchTags(t *testing.T) {
	a := prof(map[platform.AttrName]string{platform.AttrTag: "hiking,coding"})
	b := prof(map[platform.AttrName]string{platform.AttrTag: "coding,yoga"})
	matched, ok := Match(a, b, platform.AttrTag)
	if !ok || !matched {
		t.Fatal("shared tag should match")
	}
	c := prof(map[platform.AttrName]string{platform.AttrTag: "movies"})
	matched, ok = Match(a, c, platform.AttrTag)
	if !ok || matched {
		t.Fatal("disjoint tags should not match")
	}
	// Empty list items (doubled, leading or trailing commas) are not tags
	// and never match each other.
	for _, tc := range []struct {
		a, b string
		want bool
	}{
		{"a,,b", ",,", false},
		{",", ",", false},
		{",coding,", "yoga,,coding", true},
		{"hiking,coding,", ",", false},
		{"codin", "coding", false},
		{"b", "a,b", true},
	} {
		x := prof(map[platform.AttrName]string{platform.AttrTag: tc.a})
		y := prof(map[platform.AttrName]string{platform.AttrTag: tc.b})
		if matched, ok := Match(x, y, platform.AttrTag); !ok || matched != tc.want {
			t.Fatalf("tags %q vs %q: matched=%v ok=%v, want %v", tc.a, tc.b, matched, ok, tc.want)
		}
	}
}

func TestLearnImportance(t *testing.T) {
	// Email matches only on positives (discriminative); gender matches on
	// half the negatives too (weak).
	var pairs []LabeledPair
	for i := 0; i < 20; i++ {
		pairs = append(pairs, LabeledPair{
			A:        prof(map[platform.AttrName]string{platform.AttrEmail: "x@e", platform.AttrGender: "m"}),
			B:        prof(map[platform.AttrName]string{platform.AttrEmail: "x@e", platform.AttrGender: "m"}),
			Positive: true,
		})
		pairs = append(pairs, LabeledPair{
			A:        prof(map[platform.AttrName]string{platform.AttrEmail: "x@e", platform.AttrGender: "m"}),
			B:        prof(map[platform.AttrName]string{platform.AttrEmail: "y@e", platform.AttrGender: "m"}),
			Positive: false,
		})
	}
	attrs := []platform.AttrName{platform.AttrEmail, platform.AttrGender}
	im, err := LearnImportance(pairs, attrs, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(im.Scores.Sum()-1) > 1e-9 {
		t.Fatalf("importance scores sum to %v", im.Scores.Sum())
	}
	if im.Scores[0] <= im.Scores[1] {
		t.Fatalf("email should outweigh gender: %v vs %v", im.Scores[0], im.Scores[1])
	}
}

func TestLearnImportanceValidation(t *testing.T) {
	if _, err := LearnImportance(nil, nil, 0); err == nil {
		t.Fatal("expected error for empty attribute list")
	}
}

func TestLearnImportanceNoData(t *testing.T) {
	attrs := []platform.AttrName{platform.AttrJob, platform.AttrCity}
	im, err := LearnImportance(nil, attrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With no data, smoothing gives the uniform distribution.
	if math.Abs(im.Scores[0]-0.5) > 1e-9 || math.Abs(im.Scores[1]-0.5) > 1e-9 {
		t.Fatalf("no-data importance = %v, want uniform", im.Scores)
	}
}

func TestPairFeatures(t *testing.T) {
	attrs := []platform.AttrName{platform.AttrJob, platform.AttrCity, platform.AttrEmail}
	im := &Importance{Attrs: attrs, Scores: []float64{0.5, 0.3, 0.2}}
	a := prof(map[platform.AttrName]string{platform.AttrJob: "doctor", platform.AttrCity: "beijing"})
	b := prof(map[platform.AttrName]string{platform.AttrJob: "doctor", platform.AttrCity: "shanghai"})
	// Dirty outputs: every entry must be overwritten, observed or not.
	vec, mask := linalg.Vector{9, 9, 9}, []bool{true, true, true}
	im.PairFeaturesInto(a, b, vec, mask)
	if !mask[0] || !mask[1] || mask[2] {
		t.Fatalf("mask = %v", mask)
	}
	if vec[0] != 0.5*3 {
		t.Fatalf("matched feature = %v", vec[0])
	}
	if vec[1] != 0 {
		t.Fatalf("mismatched feature = %v", vec[1])
	}
	if vec[2] != 0 {
		t.Fatalf("missing feature must be zero-valued, got %v", vec[2])
	}
}
