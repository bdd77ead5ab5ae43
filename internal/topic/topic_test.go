package topic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthCorpus builds a corpus with two cleanly separated topics: words 0-4
// belong to topic A, words 5-9 to topic B. Each doc draws from one topic.
func synthCorpus(nDocs, docLen int, seed int64) ([][]int, []int) {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]int, nDocs)
	labels := make([]int, nDocs)
	for d := range docs {
		topic := d % 2
		labels[d] = topic
		doc := make([]int, docLen)
		for n := range doc {
			doc[n] = topic*5 + rng.Intn(5)
		}
		docs[d] = doc
	}
	return docs, labels
}

func TestTrainLDARecoversTopics(t *testing.T) {
	docs, labels := synthCorpus(40, 30, 1)
	m, err := TrainLDA(docs, LDAOpts{Topics: 2, VocabSize: 10, Iterations: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Infer each doc; same-label docs must land on the same dominant topic,
	// different-label docs on different ones.
	dom := func(d int) int {
		theta := m.Infer(docs[d], 30, int64(d))
		_, idx := theta.Max()
		return idx
	}
	if dom(0) != dom(2) || dom(1) != dom(3) {
		t.Fatal("same-topic docs disagree on dominant topic")
	}
	if dom(0) == dom(1) {
		t.Fatal("different-topic docs agree on dominant topic")
	}
	_ = labels
}

func TestTrainLDAValidation(t *testing.T) {
	if _, err := TrainLDA(nil, LDAOpts{Topics: 0, VocabSize: 5}); err == nil {
		t.Fatal("expected error for zero topics")
	}
	if _, err := TrainLDA(nil, LDAOpts{Topics: 2, VocabSize: 0}); err == nil {
		t.Fatal("expected error for zero vocab")
	}
	if _, err := TrainLDA([][]int{{7}}, LDAOpts{Topics: 2, VocabSize: 5, Iterations: 1}); err == nil {
		t.Fatal("expected error for out-of-vocab token")
	}
}

func TestLDATopicWordDistSums(t *testing.T) {
	docs, _ := synthCorpus(10, 20, 3)
	m, err := TrainLDA(docs, LDAOpts{Topics: 3, VocabSize: 10, Iterations: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Infer's smoothed φ_k = (n_kw + β) / (n_k + βV) is a positive
	// distribution exactly when the counts are non-negative and n_k is the
	// sum of topic k's word counts.
	for k := 0; k < m.K; k++ {
		sum := 0
		for _, n := range m.topicWord[k*m.V : (k+1)*m.V] {
			if n < 0 {
				t.Fatalf("topic %d holds a negative word count", k)
			}
			sum += n
		}
		if sum != m.topicSum[k] {
			t.Fatalf("topic %d word counts sum to %d, topic count %d", k, sum, m.topicSum[k])
		}
	}
}

func TestLDAInferEmptyDoc(t *testing.T) {
	docs, _ := synthCorpus(6, 10, 5)
	m, err := TrainLDA(docs, LDAOpts{Topics: 4, VocabSize: 10, Iterations: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	theta := m.Infer(nil, 10, 0)
	if math.Abs(theta.Sum()-1) > 1e-9 {
		t.Fatalf("empty-doc theta sums to %v", theta.Sum())
	}
	for _, p := range theta {
		if math.Abs(p-0.25) > 1e-9 {
			t.Fatalf("empty-doc theta not uniform: %v", theta)
		}
	}
}

func TestLDAInferUnknownTokensSkipped(t *testing.T) {
	docs, _ := synthCorpus(6, 10, 7)
	m, err := TrainLDA(docs, LDAOpts{Topics: 2, VocabSize: 10, Iterations: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	theta := m.Infer([]int{999, -1, 3}, 10, 1)
	if math.Abs(theta.Sum()-1) > 1e-9 {
		t.Fatalf("theta sums to %v", theta.Sum())
	}
}

// Property: inferred distributions are valid probability vectors.
func TestLDAInferDistributionProperty(t *testing.T) {
	docs, _ := synthCorpus(10, 15, 9)
	m, err := TrainLDA(docs, LDAOpts{Topics: 3, VocabSize: 10, Iterations: 15, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint8, n uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		doc := make([]int, int(n)%20)
		for i := range doc {
			doc[i] = rng.Intn(10)
		}
		theta := m.Infer(doc, 10, int64(seed))
		if math.Abs(theta.Sum()-1) > 1e-9 {
			return false
		}
		for _, p := range theta {
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGenreModel(t *testing.T) {
	gm, err := NewGenreModel(map[string]string{
		"football": "sports",
		"goal":     "sports",
		"guitar":   "music",
	})
	if err != nil {
		t.Fatal(err)
	}
	d := gm.Classify([]string{"football", "goal", "tonight"})
	if math.Abs(d.Sum()-1) > 1e-9 {
		t.Fatalf("genre dist sums to %v", d.Sum())
	}
	_, idx := d.Max()
	if Genres[idx] != "sports" {
		t.Fatalf("dominant genre = %s", Genres[idx])
	}
	// No keywords -> uniform.
	u := gm.Classify([]string{"xyzzy"})
	for _, p := range u {
		if math.Abs(p-1/float64(len(Genres))) > 1e-9 {
			t.Fatalf("keyword-free message not uniform: %v", u)
		}
	}
}

func TestGenreModelUnknownGenre(t *testing.T) {
	if _, err := NewGenreModel(map[string]string{"x": "nonsense"}); err == nil {
		t.Fatal("expected unknown-genre error")
	}
}

func TestAVCategory(t *testing.T) {
	cases := []struct {
		p    AVPoint
		want string
	}{
		{AVPoint{0.5, 0.8}, "happy"},
		{AVPoint{0.8, -0.8}, "fear"},
		{AVPoint{-0.5, -0.8}, "sad"},
		{AVPoint{0, 0}, "neutral"},
	}
	for _, c := range cases {
		if got := c.p.Category(); got != c.want {
			t.Errorf("Category(%+v) = %s, want %s", c.p, got, c.want)
		}
	}
}

func TestSentimentModel(t *testing.T) {
	sm := NewSentimentModel(map[string]AVPoint{
		"joy":    {0.5, 0.9},
		"terror": {0.9, -0.9},
		"gloom":  {-0.5, -0.9},
	})
	d := sm.Classify([]string{"joy", "joy", "terror"})
	if math.Abs(d.Sum()-1) > 1e-9 {
		t.Fatalf("sentiment dist sums to %v", d.Sum())
	}
	_, idx := d.Max()
	if Sentiments[idx] != "happy" {
		t.Fatalf("dominant sentiment = %s", Sentiments[idx])
	}
}
