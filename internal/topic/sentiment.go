package topic

import (
	"hydra/internal/linalg"
)

// Sentiments is the paper's coarse emotion grouping (Section 5.2): "roughly
// group all emotions into several categories, e.g., happy/ fear/ sad/
// neutral".
var Sentiments = []string{"happy", "fear", "sad", "neutral"}

// SentimentIndex maps sentiment name to its position in Sentiments.
var SentimentIndex = func() map[string]int {
	m := make(map[string]int, len(Sentiments))
	for i, s := range Sentiments {
		m[s] = i
	}
	return m
}()

// AVPoint is a point in the two-dimensional arousal-valence space the paper
// cites from affective-content studies [10]. Arousal and Valence are in
// [-1, 1].
type AVPoint struct {
	Arousal, Valence float64
}

// Category maps the AV point to the coarse sentiment grouping:
// high valence → happy; low valence with high arousal → fear; low valence
// with low arousal → sad; the center band → neutral.
func (p AVPoint) Category() string {
	switch {
	case p.Valence > 0.25:
		return "happy"
	case p.Valence < -0.25 && p.Arousal > 0:
		return "fear"
	case p.Valence < -0.25:
		return "sad"
	default:
		return "neutral"
	}
}

// SentimentModel maps tokens to arousal-valence points ("learning a
// sentiment vocabulary" in the paper) and classifies messages into a
// distribution over the Sentiments categories.
type SentimentModel struct {
	lexicon map[string]AVPoint
	smooth  float64
}

// NewSentimentModel builds a sentiment classifier from an AV lexicon.
func NewSentimentModel(lexicon map[string]AVPoint) *SentimentModel {
	return &SentimentModel{lexicon: lexicon, smooth: 0.1}
}

// Classify returns the sentiment-category distribution of a tokenized
// message. Each emotional keyword votes for its AV category; smoothing keeps
// keyword-free messages at the uniform distribution.
func (m *SentimentModel) Classify(tokens []string) linalg.Vector {
	out := linalg.NewVector(len(Sentiments)).Fill(m.smooth)
	for _, tok := range tokens {
		if p, ok := m.lexicon[tok]; ok {
			out[SentimentIndex[p.Category()]]++
		}
	}
	return out.Scale(1 / out.Sum())
}
