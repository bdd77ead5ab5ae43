package synth

import (
	"fmt"
	"sort"
	"testing"

	"hydra/internal/platform"
	"hydra/internal/text"
)

func TestMeasureBasics(t *testing.T) {
	w, err := Generate(DefaultConfig(80, platform.EnglishPlatforms, 31))
	if err != nil {
		t.Fatal(err)
	}
	st := Measure(w)
	if st.Persons != 80 || st.Platforms != 2 || st.Accounts != 160 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if st.Posts == 0 || st.Events == 0 || st.Edges == 0 {
		t.Fatal("content counts empty")
	}
	if st.MissingMean <= 0.5 || st.MissingMean >= 5 {
		t.Fatalf("mean missing = %v, want the Figure 2(a) regime", st.MissingMean)
	}
}

func TestContentDivergenceInPaperRange(t *testing.T) {
	// The paper reports 25%–85% UGC difference between platforms; the
	// generator's divergence knob must land the synthetic world inside
	// that band.
	w, err := Generate(DefaultConfig(100, platform.EnglishPlatforms, 33))
	if err != nil {
		t.Fatal(err)
	}
	st := Measure(w)
	if len(st.ContentDivergence) != 1 {
		t.Fatalf("divergence pairs = %d", len(st.ContentDivergence))
	}
	for pair, d := range st.ContentDivergence {
		if d < 0.25 || d > 0.95 {
			t.Fatalf("divergence %s = %v, want the paper's 25%%-85%% band", pair, d)
		}
	}
}

func TestImbalanceRatio(t *testing.T) {
	w, err := Generate(DefaultConfig(60, platform.ChinesePlatforms, 35))
	if err != nil {
		t.Fatal(err)
	}
	st := Measure(w)
	// PrimaryBoost 2.5 vs 0.7 for others: the max/min post ratio should
	// clearly exceed 1 (data imbalance).
	if st.ImbalanceRatio < 1.5 {
		t.Fatalf("imbalance ratio = %v, expected visible data imbalance", st.ImbalanceRatio)
	}
}

func TestJaccardHelper(t *testing.T) {
	a := map[string]bool{"x": true, "y": true}
	b := map[string]bool{"y": true, "z": true}
	if got := jaccard(a, b); got != 1.0/3 {
		t.Fatalf("jaccard = %v", got)
	}
	if jaccard(map[string]bool{}, map[string]bool{}) != 1 {
		t.Fatal("empty sets should be identical")
	}
}

// Stats summarizes a generated world along the axes the paper reports
// about its real datasets: content divergence between platforms (paper:
// "a 25% to 85% difference in user generated content between different
// platforms"), attribute missingness, and activity imbalance.
type Stats struct {
	Persons   int
	Platforms int
	Accounts  int
	Posts     int
	Events    int
	Edges     int

	// ContentDivergence[pair] is the mean per-person Jaccard *distance*
	// between the token sets the person uses on the two platforms.
	ContentDivergence map[string]float64
	// MissingMean is the mean number of missing core attributes per
	// account.
	MissingMean float64
	// ImbalanceRatio is the mean ratio of a person's most-active to
	// least-active platform post counts (data imbalance).
	ImbalanceRatio float64
}

// Measure computes Stats for a world.
func Measure(w *World) Stats {
	st := Stats{
		Persons:           w.Dataset.NumPersons(),
		Platforms:         len(w.Dataset.Platforms),
		ContentDivergence: make(map[string]float64),
	}
	ids := make([]platform.ID, 0, len(w.Dataset.Platforms))
	for id := range w.Dataset.Platforms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var missingTotal int
	for _, id := range ids {
		p := w.Dataset.Platforms[id]
		st.Accounts += p.NumAccounts()
		for u := 0; u < p.Graph.Len(); u++ {
			st.Edges += p.Graph.Degree(u) // counts each edge from both ends
		}
		for _, acc := range p.Accounts {
			st.Posts += len(acc.Posts)
			st.Events += len(acc.Events)
			missingTotal += len(acc.Profile.MissingSet())
		}
	}
	st.Edges /= 2
	if st.Accounts > 0 {
		st.MissingMean = float64(missingTotal) / float64(st.Accounts)
	}

	// Per-person token sets per platform.
	tokens := make(map[platform.ID]map[int]map[string]bool, len(ids))
	for _, id := range ids {
		perPerson := make(map[int]map[string]bool)
		for _, acc := range w.Dataset.Platforms[id].Accounts {
			set := make(map[string]bool)
			for _, post := range acc.Posts {
				for _, tok := range text.Tokenize(post.Text) {
					set[tok] = true
				}
			}
			perPerson[acc.Person] = set
		}
		tokens[id] = perPerson
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			var acc float64
			n := 0
			for person := 0; person < st.Persons; person++ {
				sa := tokens[ids[i]][person]
				sb := tokens[ids[j]][person]
				if len(sa) == 0 || len(sb) == 0 {
					continue
				}
				acc += 1 - jaccard(sa, sb)
				n++
			}
			if n > 0 {
				key := fmt.Sprintf("%s|%s", ids[i], ids[j])
				st.ContentDivergence[key] = acc / float64(n)
			}
		}
	}

	// Imbalance: most-active / least-active platform per person.
	var ratioAcc float64
	ratioN := 0
	for person := 0; person < st.Persons; person++ {
		minP, maxP := -1, -1
		for _, id := range ids {
			local, ok := w.Dataset.AccountOf(person, id)
			if !ok {
				continue
			}
			n := len(w.Dataset.Platforms[id].Accounts[local].Posts)
			if minP == -1 || n < minP {
				minP = n
			}
			if n > maxP {
				maxP = n
			}
		}
		if minP > 0 {
			ratioAcc += float64(maxP) / float64(minP)
			ratioN++
		}
	}
	if ratioN > 0 {
		st.ImbalanceRatio = ratioAcc / float64(ratioN)
	}
	return st
}

func jaccard(a, b map[string]bool) float64 {
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
