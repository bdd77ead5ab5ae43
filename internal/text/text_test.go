package text

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Hello, World! 42 times")
	want := []string{"hello", "world", "42", "times"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
}

func TestTokenizeCJK(t *testing.T) {
	got := Tokenize("我爱go语言")
	// Each Han char is its own token; latin run stays together.
	want := []string{"我", "爱", "go", "语", "言"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("Tokenize CJK = %v, want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize empty = %v", got)
	}
	if got := Tokenize("!!! ..."); len(got) != 0 {
		t.Fatalf("Tokenize punct = %v", got)
	}
}

func TestStopwords(t *testing.T) {
	if !IsStopword("the") || IsStopword("database") {
		t.Fatal("stopword classification wrong")
	}
}

func TestSingularize(t *testing.T) {
	cases := map[string]string{
		"cats":    "cat",
		"cities":  "city",
		"classes": "class",
		"boss":    "boss",
		"go":      "go",
		"as":      "as",
	}
	for in, want := range cases {
		if got := Singularize(in); got != want {
			t.Errorf("Singularize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNGrams(t *testing.T) {
	got := NGrams("abcd", 2)
	want := []string{"ab", "bc", "cd"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("NGrams = %v", got)
	}
	if got := NGrams("ab", 3); len(got) != 1 || got[0] != "ab" {
		t.Fatalf("short NGrams = %v", got)
	}
	if NGrams("", 2) != nil {
		t.Fatal("empty NGrams should be nil")
	}
}

func TestVocabulary(t *testing.T) {
	v := NewVocabulary()
	ids := v.AddDoc([]string{"a", "b", "a"})
	if v.Size() != 2 {
		t.Fatalf("Size=%d", v.Size())
	}
	if ids[0] != ids[2] || ids[0] == ids[1] {
		t.Fatalf("ids = %v", ids)
	}
	if v.TermFreq(ids[0]) != 2 {
		t.Fatal("freq wrong")
	}
	v.AddDoc([]string{"a", "c"})
	if v.TermFreq(ids[0]) != 3 || v.Size() != 3 {
		t.Fatal("second document not accumulated")
	}
	if _, ok := v.Lookup("zzz"); ok {
		t.Fatal("Lookup of absent token should fail")
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"адель", "адел", 1}, // non-ASCII runes
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditSimilarity(t *testing.T) {
	if EditSimilarity("", "") != 1 {
		t.Fatal("empty strings should be identical")
	}
	if got := EditSimilarity("abcd", "abce"); got != 0.75 {
		t.Fatalf("EditSimilarity = %v", got)
	}
}

func TestJaro(t *testing.T) {
	if got := Jaro("martha", "marhta"); math.Abs(got-0.9444) > 1e-3 {
		t.Fatalf("Jaro martha/marhta = %v", got)
	}
	if Jaro("", "") != 1 || Jaro("a", "") != 0 {
		t.Fatal("Jaro edge cases wrong")
	}
	if Jaro("abc", "xyz") != 0 {
		t.Fatal("disjoint strings should be 0")
	}
}

func TestJaroWinkler(t *testing.T) {
	got := JaroWinkler("dixon", "dicksonx")
	if math.Abs(got-0.8133) > 1e-3 {
		t.Fatalf("JaroWinkler dixon/dicksonx = %v", got)
	}
	// Shared prefix boosts above plain Jaro.
	if JaroWinkler("adele", "adel") <= Jaro("adele", "adel") {
		t.Fatal("prefix boost missing")
	}
}

func TestNGramJaccard(t *testing.T) {
	if NGramJaccard("", "", 2) != 1 {
		t.Fatal("empty/empty should be 1")
	}
	if NGramJaccard("ab", "", 2) != 0 {
		t.Fatal("empty/nonempty should be 0")
	}
	if got := NGramJaccard("abcd", "abcd", 2); got != 1 {
		t.Fatalf("self Jaccard = %v", got)
	}
}

func TestLongestCommonSubstring(t *testing.T) {
	if got := longestCommonSubstring([]rune("adele_nuannuan"), []rune("masuwen_adele")); got != 5 {
		t.Fatalf("LCS = %d, want 5", got)
	}
	if longestCommonSubstring(nil, []rune("abc")) != 0 {
		t.Fatal("empty LCS")
	}
}

func TestUsernameOverlap(t *testing.T) {
	if got := UsernameOverlap("adele", "adele_robinson"); got != 1 {
		t.Fatalf("full overlap = %v", got)
	}
	if UsernameOverlap("", "x") != 0 {
		t.Fatal("empty overlap")
	}
	if got := UsernameOverlap("ab", "cd"); got != 0 {
		t.Fatalf("disjoint overlap = %v", got)
	}
}

// Property: edit distance is a metric — symmetric, zero iff equal strings
// (over a small alphabet), triangle inequality.
func TestEditDistanceMetricProperty(t *testing.T) {
	gen := func(n uint8) string {
		const alpha = "ab"
		s := make([]byte, int(n)%6)
		x := int(n)
		for i := range s {
			s[i] = alpha[x%2]
			x /= 2
		}
		return string(s)
	}
	f := func(x, y, z uint8) bool {
		a, b, c := gen(x), gen(y), gen(z)
		dab, dba := EditDistance(a, b), EditDistance(b, a)
		if dab != dba {
			return false
		}
		if (dab == 0) != (a == b) {
			return false
		}
		return EditDistance(a, c) <= dab+EditDistance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: all string similarities stay in [0,1] and are 1 on identical input.
func TestSimilarityRangeProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		for _, s := range []float64{
			EditSimilarity(a, b), Jaro(a, b), JaroWinkler(a, b), NGramJaccard(a, b, 2), UsernameOverlap(a, b),
		} {
			if s < 0 || s > 1+1e-12 || math.IsNaN(s) {
				return false
			}
		}
		return Jaro(a, a) == 1 || a == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
