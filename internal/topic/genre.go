package topic

import (
	"hydra/internal/linalg"
)

// Genres is the paper's content-genre inventory (Section 5.2): "sports/
// music/ entertainment/ society/ history/ science/ art/ high-tech/
// commercial/ politics/ geography/ traveling/ fashions/ digital game/
// industry/ luxury/ violence".
var Genres = []string{
	"sports", "music", "entertainment", "society", "history", "science",
	"art", "hightech", "commercial", "politics", "geography", "traveling",
	"fashions", "digitalgame", "industry", "luxury", "violence",
}

// GenreIndex maps genre name to its position in Genres.
var GenreIndex = func() map[string]int {
	m := make(map[string]int, len(Genres))
	for i, g := range Genres {
		m[g] = i
	}
	return m
}()

// GenreModel classifies tokenized messages into a distribution over Genres
// using a keyword lexicon: P(genre | message) ∝ matched keyword count,
// smoothed so that messages with no matches yield the uniform distribution.
type GenreModel struct {
	lexicon map[string]int // token -> genre index
	smooth  float64
}

// NewGenreModel builds a genre classifier from a lexicon mapping tokens to
// genre names. Unknown genre names are rejected.
func NewGenreModel(lexicon map[string]string) (*GenreModel, error) {
	m := &GenreModel{lexicon: make(map[string]int, len(lexicon)), smooth: 0.1}
	for tok, g := range lexicon {
		idx, ok := GenreIndex[g]
		if !ok {
			return nil, errUnknownGenre(g)
		}
		m.lexicon[tok] = idx
	}
	return m, nil
}

type errUnknownGenre string

func (e errUnknownGenre) Error() string { return "topic: unknown genre " + string(e) }

// Classify returns the genre distribution of a tokenized message.
func (m *GenreModel) Classify(tokens []string) linalg.Vector {
	out := linalg.NewVector(len(Genres)).Fill(m.smooth)
	for _, tok := range tokens {
		if idx, ok := m.lexicon[tok]; ok {
			out[idx]++
		}
	}
	return out.Scale(1 / out.Sum())
}
