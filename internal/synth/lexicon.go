// Package synth generates the synthetic multi-platform social world that
// stands in for the paper's 10-million-user, seven-platform dataset (see
// the README's introduction). The generator is a
// person-level generative model: each natural person has latent interests,
// style, mobility, sociality and deception habits; each platform projects a
// noisy, biased, partially-missing view of that person. Every challenge the
// paper lists — unreliable usernames, missing information, information
// veracity, platform difference, behavior asynchrony, data imbalance — has
// an explicit knob.
package synth

import (
	"fmt"

	"hydra/internal/topic"
)

// Lexicons carries the keyword vocabularies shared between the generator
// and the feature pipeline: the pipeline needs the same genre and sentiment
// lexicons to classify generated posts.
type Lexicons struct {
	// Genre maps keyword -> genre name (one of topic.Genres).
	Genre map[string]string
	// Sentiment maps keyword -> arousal-valence point.
	Sentiment map[string]topic.AVPoint
	// TopicWords[t] lists the vocabulary of latent topic t.
	TopicWords [][]string
	// Filler lists high-frequency topic-neutral words.
	Filler []string
}

// keywordsPerGenre is how many distinct keywords each genre gets.
const keywordsPerGenre = 6

// BuildLexicons constructs the deterministic lexicons for a world with the
// given number of latent topics and per-topic vocabulary size.
func BuildLexicons(topics, wordsPerTopic int) *Lexicons {
	lx := &Lexicons{
		Genre:     make(map[string]string),
		Sentiment: make(map[string]topic.AVPoint),
	}
	for _, g := range topic.Genres {
		for j := 0; j < keywordsPerGenre; j++ {
			lx.Genre[fmt.Sprintf("g%sk%d", g, j)] = g
		}
	}
	// Four sentiment families with AV points inside each category's region.
	sentiFamilies := []struct {
		name string
		av   topic.AVPoint
		n    int
	}{
		{"happy", topic.AVPoint{Arousal: 0.5, Valence: 0.8}, 8},
		{"fear", topic.AVPoint{Arousal: 0.8, Valence: -0.8}, 8},
		{"sad", topic.AVPoint{Arousal: -0.5, Valence: -0.8}, 8},
		{"neutral", topic.AVPoint{Arousal: 0, Valence: 0}, 8},
	}
	for _, f := range sentiFamilies {
		for j := 0; j < f.n; j++ {
			lx.Sentiment[fmt.Sprintf("s%sw%d", f.name, j)] = f.av
		}
	}
	lx.TopicWords = make([][]string, topics)
	for t := 0; t < topics; t++ {
		words := make([]string, wordsPerTopic)
		for j := 0; j < wordsPerTopic; j++ {
			words[j] = fmt.Sprintf("t%dw%d", t, j)
		}
		lx.TopicWords[t] = words
	}
	for j := 0; j < 30; j++ {
		lx.Filler = append(lx.Filler, fmt.Sprintf("filler%d", j))
	}
	return lx
}

// StyleWord returns the j-th personal rare token of a person — the
// "personalized wording" signal the style model of Section 5.3 detects.
func StyleWord(person, j int) string { return fmt.Sprintf("uq%dx%d", person, j) }

// Cities are the location anchors persons live in (lat, lon).
var Cities = []struct {
	Name     string
	Lat, Lon float64
}{
	{"beijing", 39.9042, 116.4074},
	{"shanghai", 31.2304, 121.4737},
	{"guangzhou", 23.1291, 113.2644},
	{"chengdu", 30.5728, 104.0668},
	{"wuhan", 30.5928, 114.3055},
	{"xian", 34.3416, 108.9398},
	{"hangzhou", 30.2741, 120.1551},
	{"nanjing", 32.0603, 118.7969},
	{"newyork", 40.7128, -74.0060},
	{"london", 51.5074, -0.1278},
}

// Educations, Jobs: attribute value pools.
var Educations = []string{
	"peking_univ", "tsinghua_univ", "fudan_univ", "zhejiang_univ",
	"nanjing_univ", "cmu", "smu", "mit", "stanford", "oxford",
}

// Jobs is the profession attribute pool.
var Jobs = []string{
	"engineer", "teacher", "doctor", "designer", "analyst",
	"journalist", "lawyer", "researcher", "manager", "student",
}

// BioPhrases is the bio attribute pool.
var BioPhrases = []string{
	"love life and travel", "coffee addict", "music is my life",
	"work hard play hard", "cat person", "dog person",
	"foodie forever", "tech enthusiast", "bookworm", "night owl",
}

// TagPool is the tag attribute pool (users pick a couple).
var TagPool = []string{
	"photography", "hiking", "gaming", "cooking", "movies",
	"basketball", "yoga", "painting", "coding", "gardening",
}
