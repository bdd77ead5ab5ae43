package text

// String-similarity measures used by the rule-based candidate filtering
// (partial username overlap) and by the Alias-Disamb and MOBIUS baselines.

// EditDistance returns the Levenshtein distance between a and b (runes).
func EditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// EditSimilarity returns 1 - dist/maxLen, in [0,1]; 1 for two empty strings.
func EditSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(EditDistance(a, b))/float64(maxLen)
}

// shortString is the rune count up to which the matchers below keep their
// scratch on the stack (usernames are shorter), so that comparing two of
// them allocates nothing: these run under every pair vector.
const shortString = 32

// Jaro returns the Jaro similarity of a and b in [0,1].
func Jaro(a, b string) float64 { return jaro([]rune(a), []rune(b)) }

func jaro(ra, rb []rune) float64 {
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
	var bufA, bufB [shortString]bool
	var matchA, matchB []bool
	if la <= shortString && lb <= shortString {
		matchA, matchB = bufA[:la], bufB[:lb]
	} else {
		matchA, matchB = make([]bool, la), make([]bool, lb)
	}
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

// JaroWinkler returns the Jaro-Winkler similarity with the standard prefix
// scale 0.1 and maximum prefix length 4.
func JaroWinkler(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	j := jaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// NGramJaccard returns the Jaccard similarity between the character n-gram
// sets of a and b.
func NGramJaccard(a, b string, n int) float64 {
	ga, gb := NGrams(a, n), NGrams(b, n)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	setA := make(map[string]bool, len(ga))
	for _, g := range ga {
		setA[g] = true
	}
	setB := make(map[string]bool, len(gb))
	for _, g := range gb {
		setB[g] = true
	}
	inter := 0
	for g := range setA {
		if setB[g] {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	return float64(inter) / float64(union)
}

// longestCommonSubstring returns the length of the longest common substring
// of ra and rb. Username-overlap filtering uses this to detect partial
// overlap such as "Adele" inside "Adele_xiaonuan".
func longestCommonSubstring(ra, rb []rune) int {
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	var bufPrev, bufCur [shortString + 1]int
	var prev, cur []int
	if len(rb) <= shortString {
		prev, cur = bufPrev[:len(rb)+1], bufCur[:len(rb)+1]
	} else {
		prev, cur = make([]int, len(rb)+1), make([]int, len(rb)+1)
	}
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

// UsernameOverlap returns the longest common substring's length normalized
// by the shorter username's length, in [0,1].
func UsernameOverlap(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return 0
	}
	shorter := la
	if lb < shorter {
		shorter = lb
	}
	return float64(longestCommonSubstring(ra, rb)) / float64(shorter)
}
