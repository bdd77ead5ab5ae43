package text

// Vocabulary maps tokens to dense integer ids, accumulating corpus-level
// term frequencies as documents are added.
type Vocabulary struct {
	ids      map[string]int
	termFreq []int
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: make(map[string]int)}
}

// Size returns the number of distinct tokens.
func (v *Vocabulary) Size() int { return len(v.termFreq) }

// ID returns the id for tok, inserting it if new.
func (v *Vocabulary) ID(tok string) int {
	if id, ok := v.ids[tok]; ok {
		return id
	}
	id := len(v.termFreq)
	v.ids[tok] = id
	v.termFreq = append(v.termFreq, 0)
	return id
}

// Lookup returns the id for tok without inserting; ok is false if absent.
func (v *Vocabulary) Lookup(tok string) (int, bool) {
	id, ok := v.ids[tok]
	return id, ok
}

// TermFreq returns the corpus frequency of token id.
func (v *Vocabulary) TermFreq(id int) int { return v.termFreq[id] }

// AddDoc registers a tokenized document, updating term frequencies, and
// returns the document as token ids.
func (v *Vocabulary) AddDoc(tokens []string) []int {
	ids := make([]int, len(tokens))
	for i, tok := range tokens {
		id := v.ID(tok)
		ids[i] = id
		v.termFreq[id]++
	}
	return ids
}
