// Package text provides the text-processing substrate HYDRA's behavior
// models sit on: tokenization, vocabularies, term/document frequencies,
// stop-word handling, and the string-similarity measures used by the
// rule-based candidate filtering (username overlap) and the baselines.
package text

import (
	"strings"
	"unicode"
)

// Tokenize lower-cases s and splits it into word tokens. Tokens are maximal
// runs of letters/digits; everything else is a separator. CJK characters are
// emitted as single-rune tokens (the standard character-unigram treatment
// for unsegmented Chinese text).
func Tokenize(s string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	for _, r := range strings.ToLower(s) {
		switch {
		case unicode.Is(unicode.Han, r):
			flush()
			tokens = append(tokens, string(r))
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// defaultStopwords is a compact English stop-word list; enough to keep the
// style model from selecting function words as "unique" terms (Section 5.3
// removes stop words before picking the k most unique words).
var defaultStopwords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true, "but": true,
	"if": true, "of": true, "at": true, "by": true, "for": true, "with": true,
	"about": true, "against": true, "between": true, "into": true, "through": true,
	"to": true, "from": true, "in": true, "on": true, "off": true, "over": true,
	"under": true, "again": true, "then": true, "once": true, "here": true,
	"there": true, "all": true, "any": true, "both": true, "each": true,
	"few": true, "more": true, "most": true, "other": true, "some": true,
	"such": true, "no": true, "nor": true, "not": true, "only": true,
	"own": true, "same": true, "so": true, "than": true, "too": true,
	"very": true, "can": true, "will": true, "just": true, "is": true,
	"are": true, "was": true, "were": true, "be": true, "been": true,
	"being": true, "have": true, "has": true, "had": true, "do": true,
	"does": true, "did": true, "i": true, "you": true, "he": true,
	"she": true, "it": true, "we": true, "they": true, "this": true,
	"that": true, "these": true, "those": true, "my": true, "your": true,
	"me": true, "him": true, "her": true, "as": true, "what": true,
	"which": true, "who": true, "whom": true, "its": true, "our": true,
}

// IsStopword reports whether tok is in the built-in stop-word list.
func IsStopword(tok string) bool { return defaultStopwords[tok] }

// Singularize applies light plural stripping so that word matching in the
// style model compares a uniform format (Section 5.3: "converted into a
// uniform format, such as lower-case and singular form").
func Singularize(tok string) string {
	switch {
	case strings.HasSuffix(tok, "ies") && len(tok) > 4:
		return tok[:len(tok)-3] + "y"
	case strings.HasSuffix(tok, "sses"):
		return tok[:len(tok)-2]
	case strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss") && len(tok) > 3:
		return tok[:len(tok)-1]
	default:
		return tok
	}
}

// NGrams returns the character n-grams of s (runes, not bytes). If s is
// shorter than n, the whole string is the single gram.
func NGrams(s string, n int) []string {
	runes := []rune(s)
	if len(runes) == 0 {
		return nil
	}
	if len(runes) <= n {
		return []string{string(runes)}
	}
	grams := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+n]))
	}
	return grams
}
