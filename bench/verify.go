package main

// Correctness. The oracle is a heap engine with the certified prescreen
// and the pack-time impute table switched off: the exact scorer over the
// live Eqn-18 walk, reading the bundle through the decoding reader the
// served (mapped) engine does not use. An answer counts only if it equals
// the oracle's bit for bit.

import (
	"fmt"
	"math"
	"math/rand"

	"hydra/internal/blocking"
	"hydra/internal/pipeline"
	"hydra/internal/serve"
)

type oracle struct {
	eng  *serve.Engine
	topk map[int][]serve.Scored
	pool []float64 // expected score of every pool pair, score-pool only
}

func newOracle(b *pipeline.Bundle) (*oracle, error) {
	eng, err := serve.NewEngineFromBundle(b, 0)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	eng.SetPrescreenEnabled(false)
	eng.SetImputeTableEnabled(false)
	return &oracle{eng: eng, topk: map[int][]serve.Scored{}}, nil
}

func (o *oracle) wantTopK(a int) ([]serve.Scored, error) {
	if want, ok := o.topk[a]; ok {
		return want, nil
	}
	want, err := o.eng.TopK(platA, a, platB, topK)
	if err != nil {
		return nil, fmt.Errorf("oracle top-k of %d: %w", a, err)
	}
	o.topk[a] = want
	return want, nil
}

func (o *oracle) scorePool(pool [][2]int) error {
	var err error
	o.pool, err = o.eng.ScoreBatch(platA, platB, pool)
	if err != nil {
		return fmt.Errorf("oracle pool scores: %w", err)
	}
	return nil
}

func sameTopK(got, want []serve.Scored) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].B != want[i].B || got[i].Linked != want[i].Linked ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// verifier decides whether a sample's answer is right.
type verifier struct {
	oracle *oracle
	gen    uint64 // generation every response must carry
	// structural, when set, is topk-cold50k's check of every answer; only
	// the samples replay selects also go to the oracle.
	structural func(a int, got []serve.Scored) bool
	replay     func(i int) bool
}

// failures counts the samples that miss: transport and status faults,
// degraded or wrong-generation responses, and answers that differ from
// the oracle's. It marks them wrong and describes the first few.
func (v *verifier) failures(samples []sample) (int, []string, error) {
	failed := 0
	var notes []string
	for i, s := range samples {
		why, err := v.check(i, s)
		if err != nil {
			return 0, nil, err
		}
		if why == "" {
			continue
		}
		samples[i].wrong = true
		failed++
		if len(notes) < 5 {
			notes = append(notes, fmt.Sprintf("%s %d: %s", s.req.kind, s.req.key, why))
		}
	}
	return failed, notes, nil
}

func (v *verifier) check(i int, s sample) (string, error) {
	switch {
	case s.fault != "":
		return s.fault, nil
	case s.resp.Degraded:
		return "degraded response", nil
	case s.resp.Generation != v.gen:
		return fmt.Sprintf("generation %d, want %d", s.resp.Generation, v.gen), nil
	}
	if s.req.kind == kindTopK {
		if v.structural != nil {
			if !v.structural(s.req.key, s.resp.Results) {
				return "malformed top-k", nil
			}
			if !v.replay(i) {
				return "", nil
			}
		}
		want, err := v.oracle.wantTopK(s.req.key)
		if err != nil {
			return "", err
		}
		if !sameTopK(s.resp.Results, want) {
			return fmt.Sprintf("top-k %v, oracle %v", s.resp.Results, want), nil
		}
		return "", nil
	}
	n := pairsOf(s.req.kind)
	if len(s.resp.Scores) != n {
		return fmt.Sprintf("%d scores for %d pairs", len(s.resp.Scores), n), nil
	}
	for j, got := range s.resp.Scores {
		want := v.oracle.pool[(s.req.key+j)%len(v.oracle.pool)]
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Sprintf("pair %d scored %v, oracle %v", j, got, want), nil
		}
	}
	return "", nil
}

// wellFormedTopK is the check every topk-cold50k answer gets: at most k
// rows, each a candidate of the account's index row, ordered by score
// descending then B ascending, linked exactly when the score is positive.
func wellFormedTopK(row []blocking.Candidate, got []serve.Scored) bool {
	if len(got) != min(topK, len(row)) {
		return false
	}
	cands := make(map[int]bool, len(row))
	for _, c := range row {
		cands[c.B] = true
	}
	for i, r := range got {
		if !cands[r.B] || r.Linked != (r.Score > 0) || math.IsNaN(r.Score) {
			return false
		}
		if i > 0 && !serve.ScoredLess(got[i-1], r) {
			return false
		}
	}
	return true
}

// seededSubset selects about one index in every, the same ones for the
// same seed.
func seededSubset(seed int64, every int) func(int) bool {
	return func(i int) bool { return rand.New(rand.NewSource(seed<<20^int64(i))).Intn(every) == 0 }
}

func flipLowBit(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }
