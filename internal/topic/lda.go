// Package topic implements the long-term user topic models of HYDRA's
// Section 5.2: Latent Dirichlet Allocation (collapsed Gibbs sampling) over
// textual messages, plus the content-genre and sentiment-pattern
// distribution models built on explicit lexicons.
package topic

import (
	"fmt"
	"math/rand"

	"hydra/internal/linalg"
)

// LDA is a Latent Dirichlet Allocation model trained with collapsed Gibbs
// sampling. It produces a probability distribution over topics for every
// document — the per-message output HYDRA aggregates into multi-scale
// temporal topic distributions.
type LDA struct {
	K     int     // number of topics
	V     int     // vocabulary size
	Alpha float64 // symmetric document-topic prior
	Beta  float64 // symmetric topic-word prior

	topicWord []int // K*V counts
	topicSum  []int // K counts
}

// LDAOpts configures training.
type LDAOpts struct {
	Topics     int     // number of topics (required, > 0)
	VocabSize  int     // vocabulary size (required, > 0)
	Alpha      float64 // default 50/K
	Beta       float64 // default 0.01
	Iterations int     // Gibbs sweeps, default 100
	Seed       int64
}

// TrainLDA runs collapsed Gibbs sampling on docs, where each document is a
// slice of token ids in [0, VocabSize).
func TrainLDA(docs [][]int, opts LDAOpts) (*LDA, error) {
	if opts.Topics <= 0 {
		return nil, fmt.Errorf("topic: Topics must be positive, got %d", opts.Topics)
	}
	if opts.VocabSize <= 0 {
		return nil, fmt.Errorf("topic: VocabSize must be positive, got %d", opts.VocabSize)
	}
	if opts.Alpha <= 0 {
		opts.Alpha = 50 / float64(opts.Topics)
	}
	if opts.Beta <= 0 {
		opts.Beta = 0.01
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 100
	}
	K, V := opts.Topics, opts.VocabSize
	m := &LDA{K: K, V: V, Alpha: opts.Alpha, Beta: opts.Beta,
		topicWord: make([]int, K*V), topicSum: make([]int, K)}

	rng := rand.New(rand.NewSource(opts.Seed + 12345))
	// z[d][n] is the topic assignment of token n of document d.
	z := make([][]int, len(docs))
	docTopic := make([][]int, len(docs))
	for d, doc := range docs {
		z[d] = make([]int, len(doc))
		docTopic[d] = make([]int, K)
		for n, w := range doc {
			if w < 0 || w >= V {
				return nil, fmt.Errorf("topic: token id %d out of vocabulary size %d (doc %d)", w, V, d)
			}
			k := rng.Intn(K)
			z[d][n] = k
			docTopic[d][k]++
			m.topicWord[k*V+w]++
			m.topicSum[k]++
		}
	}

	probs := make([]float64, K)
	for iter := 0; iter < opts.Iterations; iter++ {
		for d, doc := range docs {
			dt := docTopic[d]
			for n, w := range doc {
				old := z[d][n]
				dt[old]--
				m.topicWord[old*V+w]--
				m.topicSum[old]--

				var total float64
				for k := 0; k < K; k++ {
					p := (float64(dt[k]) + m.Alpha) *
						(float64(m.topicWord[k*V+w]) + m.Beta) /
						(float64(m.topicSum[k]) + m.Beta*float64(V))
					probs[k] = p
					total += p
				}
				u := rng.Float64() * total
				knew := K - 1
				for k := 0; k < K; k++ {
					u -= probs[k]
					if u <= 0 {
						knew = k
						break
					}
				}
				z[d][n] = knew
				dt[knew]++
				m.topicWord[knew*V+w]++
				m.topicSum[knew]++
			}
		}
	}
	return m, nil
}

// Infer estimates the topic distribution θ of a new document by a short
// Gibbs run against the frozen topic-word counts.
func (m *LDA) Infer(doc []int, iterations int, seed int64) linalg.Vector {
	if iterations <= 0 {
		iterations = 20
	}
	theta := linalg.NewVector(m.K)
	if len(doc) == 0 {
		// No evidence: return the uniform prior.
		return theta.Fill(1 / float64(m.K))
	}
	rng := rand.New(rand.NewSource(seed + 999))
	z := make([]int, len(doc))
	dt := make([]int, m.K)
	for n := range doc {
		k := rng.Intn(m.K)
		z[n] = k
		dt[k]++
	}
	probs := make([]float64, m.K)
	for iter := 0; iter < iterations; iter++ {
		for n, w := range doc {
			if w < 0 || w >= m.V {
				continue // unseen token: skip
			}
			old := z[n]
			dt[old]--
			var total float64
			for k := 0; k < m.K; k++ {
				p := (float64(dt[k]) + m.Alpha) *
					(float64(m.topicWord[k*m.V+w]) + m.Beta) /
					(float64(m.topicSum[k]) + m.Beta*float64(m.V))
				probs[k] = p
				total += p
			}
			u := rng.Float64() * total
			knew := m.K - 1
			for k := 0; k < m.K; k++ {
				u -= probs[k]
				if u <= 0 {
					knew = k
					break
				}
			}
			z[n] = knew
			dt[knew]++
		}
	}
	denom := float64(len(doc)) + m.Alpha*float64(m.K)
	for k := 0; k < m.K; k++ {
		theta[k] = (float64(dt[k]) + m.Alpha) / denom
	}
	return theta
}
