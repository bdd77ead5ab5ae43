package features

import (
	"math"
	"slices"
	"testing"

	"hydra/internal/attr"
	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

// worldAndPipeline builds a small synthetic world and a trained pipeline.
func worldAndPipeline(t testing.TB, persons int, seed int64) (*synth.World, *Pipeline) {
	t.Helper()
	w, err := synth.Generate(synth.DefaultConfig(persons, platform.EnglishPlatforms, seed))
	if err != nil {
		t.Fatal(err)
	}
	// Labeled pairs for importance learning: true pairs plus shifted
	// negatives.
	var labeled []attr.LabeledPair
	tw, _ := w.Dataset.Platform(platform.Twitter)
	fb, _ := w.Dataset.Platform(platform.Facebook)
	for person := 0; person < persons/2; person++ {
		a, _ := w.Dataset.AccountOf(person, platform.Twitter)
		b, _ := w.Dataset.AccountOf(person, platform.Facebook)
		bNeg, _ := w.Dataset.AccountOf((person+1)%persons, platform.Facebook)
		labeled = append(labeled,
			attr.LabeledPair{A: &tw.Accounts[a].Profile, B: &fb.Accounts[b].Profile, Positive: true},
			attr.LabeledPair{A: &tw.Accounts[a].Profile, B: &fb.Accounts[bNeg].Profile, Positive: false})
	}
	cfg := DefaultConfig(seed)
	cfg.LDAIterations = 25
	cfg.MaxLDADocs = 1500
	p, err := NewPipeline(w.Dataset, labeled, Lexicons{Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, p
}

func TestPipelineDim(t *testing.T) {
	_, p := worldAndPipeline(t, 30, 1)
	// 8 attrs + 1 face + 2 username + 3×6 scales + 3 style + 2×5 mr = 42.
	want := 8 + 1 + 2 + 18 + 3 + 10
	if p.Dim() != want {
		t.Fatalf("Dim = %d, want %d", p.Dim(), want)
	}
	if len(p.names) != want || len(p.FeatureGroups()) != want {
		t.Fatal("names/groups length mismatch")
	}
}

func TestPairVectorSanity(t *testing.T) {
	w, p := worldAndPipeline(t, 30, 2)
	tw, _ := w.Dataset.Platform(platform.Twitter)
	fb, _ := w.Dataset.Platform(platform.Facebook)
	a, _ := w.Dataset.AccountOf(3, platform.Twitter)
	b, _ := w.Dataset.AccountOf(3, platform.Facebook)
	va := p.BuildView(tw.Accounts[a])
	vb := p.BuildView(fb.Accounts[b])
	pv := p.Pair(va, vb)
	if len(pv.X) != p.Dim() || len(pv.Mask) != p.Dim() {
		t.Fatal("pair vector shape wrong")
	}
	for i := range pv.X {
		if math.IsNaN(pv.X[i]) || math.IsInf(pv.X[i], 0) {
			t.Fatalf("feature %s is %v", p.names[i], pv.X[i])
		}
		if !pv.Mask[i] && pv.X[i] != 0 {
			t.Fatalf("missing feature %s has nonzero value", p.names[i])
		}
	}
	if !slices.Contains(pv.Mask, true) {
		t.Fatal("no observed features at all")
	}
}

func TestSamePersonPairsScoreHigher(t *testing.T) {
	w, p := worldAndPipeline(t, 40, 3)
	tw, _ := w.Dataset.Platform(platform.Twitter)
	fb, _ := w.Dataset.Platform(platform.Facebook)

	views := make(map[string]*AccountView)
	view := func(pl *platform.Platform, local int) *AccountView {
		key := string(pl.ID) + ":" + string(rune(local))
		if v, ok := views[key]; ok {
			return v
		}
		v := p.BuildView(pl.Accounts[local])
		views[key] = v
		return v
	}

	var posSum, negSum float64
	n := 25
	for person := 0; person < n; person++ {
		a, _ := w.Dataset.AccountOf(person, platform.Twitter)
		b, _ := w.Dataset.AccountOf(person, platform.Facebook)
		bn, _ := w.Dataset.AccountOf((person+7)%40, platform.Facebook)
		pos := p.Pair(view(tw, a), view(fb, b))
		neg := p.Pair(view(tw, a), view(fb, bn))
		posSum += pos.X.Sum()
		negSum += neg.X.Sum()
	}
	if posSum <= negSum {
		t.Fatalf("positive pairs should dominate: pos=%v neg=%v", posSum, negSum)
	}
}

func TestEmbeddingShape(t *testing.T) {
	w, p := worldAndPipeline(t, 20, 4)
	tw, _ := w.Dataset.Platform(platform.Twitter)
	v := p.BuildView(tw.Accounts[0])
	wantDim := p.cfg.Topics + 17 + 4 // topics + genres + sentiments
	if len(v.Embedding) != wantDim {
		t.Fatalf("embedding dim = %d, want %d", len(v.Embedding), wantDim)
	}
	for _, x := range v.Embedding {
		if math.IsNaN(x) || x < 0 {
			t.Fatalf("bad embedding entry %v", x)
		}
	}
}

func TestEmbeddingSimilarForSamePerson(t *testing.T) {
	w, p := worldAndPipeline(t, 40, 5)
	tw, _ := w.Dataset.Platform(platform.Twitter)
	fb, _ := w.Dataset.Platform(platform.Facebook)
	var sameDist, diffDist float64
	count := 0
	for person := 0; person < 20; person++ {
		a, _ := w.Dataset.AccountOf(person, platform.Twitter)
		b, _ := w.Dataset.AccountOf(person, platform.Facebook)
		c, _ := w.Dataset.AccountOf((person+11)%40, platform.Facebook)
		va := p.BuildView(tw.Accounts[a])
		vb := p.BuildView(fb.Accounts[b])
		vc := p.BuildView(fb.Accounts[c])
		if len(tw.Accounts[a].Posts) < 3 || len(fb.Accounts[b].Posts) < 3 || len(fb.Accounts[c].Posts) < 3 {
			continue
		}
		sameDist += math.Sqrt(linalg.SqDist(va.Embedding, vb.Embedding))
		diffDist += math.Sqrt(linalg.SqDist(va.Embedding, vc.Embedding))
		count++
	}
	if count == 0 {
		t.Skip("no active triples")
	}
	if sameDist >= diffDist {
		t.Fatalf("same-person embeddings should be closer: same=%v diff=%v", sameDist, diffDist)
	}
}

func TestStyleSim(t *testing.T) {
	ua := []string{"zork", "quux", "flib"}
	ub := []string{"zork", "blat", "quux"}
	if got := styleSim(ua, ub, 1); got != 1 {
		t.Fatalf("k=1 sim = %v", got)
	}
	if got := styleSim(ua, ub, 3); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("k=3 sim = %v", got)
	}
	// k beyond length uses available words but divides by k.
	if got := styleSim(ua, ub, 5); math.Abs(got-2.0/5) > 1e-12 {
		t.Fatalf("k=5 sim = %v", got)
	}
}

func TestNewPipelineValidation(t *testing.T) {
	w, _ := worldAndPipeline(t, 10, 6)
	cfg := DefaultConfig(1)
	cfg.ScalesDays = nil
	_, err := NewPipeline(w.Dataset, nil, Lexicons{Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment}, cfg)
	if err == nil {
		t.Fatal("expected error for empty scales")
	}
}

func TestPipelineOnEmptyCorpus(t *testing.T) {
	w, err := synth.Generate(synth.DefaultConfig(5, platform.EnglishPlatforms, 7))
	if err != nil {
		t.Fatal(err)
	}
	// Strip all posts.
	for _, pl := range w.Dataset.Platforms {
		for _, acc := range pl.Accounts {
			acc.Posts = nil
		}
	}
	_, err = NewPipeline(w.Dataset, nil, Lexicons{Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment}, DefaultConfig(1))
	if err == nil {
		t.Fatal("expected error when no posts exist")
	}
}
