package baseline

import (
	"testing"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/metrics"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

// fixture builds a world, system and task shared by the baseline tests.
func fixture(t *testing.T, persons int, plats []platform.ID, seed int64) (*core.System, *core.Task) {
	t.Helper()
	w, err := synth.Generate(synth.DefaultConfig(persons, plats, seed))
	if err != nil {
		t.Fatal(err)
	}
	var people []int
	for p := 0; p < persons/2; p++ {
		people = append(people, p)
	}
	labeled := core.LabeledProfilePairs(w.Dataset, plats[0], plats[1], people)
	fcfg := features.DefaultConfig(seed)
	fcfg.LDAIterations = 20
	fcfg.MaxLDADocs = 1200
	sys, err := core.NewSystem(w.Dataset, labeled, features.Lexicons{
		Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment,
	}, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	block, err := core.BuildBlock(sys, plats[0], plats[1], blocking.DefaultRules(), core.DefaultLabelOpts(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys, &core.Task{Blocks: []*core.Block{block}}
}

func evalLinker(t *testing.T, sys *core.System, l core.Linker, task *core.Task) metrics.Confusion {
	t.Helper()
	if err := l.Fit(sys, task); err != nil {
		t.Fatalf("%s Fit: %v", l.Name(), err)
	}
	conf, err := core.EvaluateLinkerWorkers(sys, l, task.Blocks, 0)
	if err != nil {
		t.Fatalf("%s evaluate: %v", l.Name(), err)
	}
	return conf
}

func TestSVMBLearns(t *testing.T) {
	sys, task := fixture(t, 50, platform.EnglishPlatforms, 11)
	conf := evalLinker(t, sys, &SVMB{}, task)
	if conf.F1() < 0.5 {
		t.Fatalf("SVM-B F1 = %v too low: %s", conf.F1(), conf)
	}
}

func TestSVMBUnfitted(t *testing.T) {
	s := &SVMB{}
	if _, err := s.PairScore(platform.Twitter, 0, platform.Facebook, 0); err == nil {
		t.Fatal("expected unfitted error")
	}
	if err := s.Fit(nil, &core.Task{}); err == nil {
		t.Fatal("expected no-labels error")
	}
}

func TestMOBIUSLearnsOnEnglish(t *testing.T) {
	sys, task := fixture(t, 50, platform.EnglishPlatforms, 13)
	conf := evalLinker(t, sys, &MOBIUS{}, task)
	// Username modeling works passably on English platforms...
	if conf.F1() < 0.25 {
		t.Fatalf("MOBIUS F1 = %v too low: %s", conf.F1(), conf)
	}
}

func TestMOBIUSWorseOnChinese(t *testing.T) {
	sysEn, taskEn := fixture(t, 60, platform.EnglishPlatforms, 17)
	confEn := evalLinker(t, sysEn, &MOBIUS{}, taskEn)
	sysZh, taskZh := fixture(t, 60, []platform.ID{platform.SinaWeibo, platform.Renren}, 17)
	confZh := evalLinker(t, sysZh, &MOBIUS{}, taskZh)
	// ...and degrades when usernames diverge across Chinese platforms.
	if confZh.F1() > confEn.F1()+0.05 {
		t.Fatalf("MOBIUS should do worse on Chinese platforms: zh=%v en=%v", confZh.F1(), confEn.F1())
	}
}

func TestUsernameFeatures(t *testing.T) {
	f := usernameFeatures("adele88", "adele88")
	for i, v := range f {
		if v < 0 || v > 1 {
			t.Fatalf("feature %d = %v out of [0,1]", i, v)
		}
	}
	// Identical usernames maximize the similarity block.
	if f[0] != 1 || f[2] != 1 {
		t.Fatalf("identical usernames should give JW=1, edit=1: %v", f)
	}
	g := usernameFeatures("adele88", "zxqvbn")
	if g[0] >= f[0] {
		t.Fatal("dissimilar usernames should score lower")
	}
	if digitSuffix("abc123") != "123" || digitSuffix("abc") != "" {
		t.Fatal("digitSuffix wrong")
	}
	if reverse("abc") != "cba" {
		t.Fatal("reverse wrong")
	}
}

func TestAliasDisambUnsupervised(t *testing.T) {
	sys, task := fixture(t, 60, platform.EnglishPlatforms, 19)
	// Strip the labels: Alias-Disamb must work without them.
	for _, b := range task.Blocks {
		b.Labels = map[int]float64{}
	}
	conf := evalLinker(t, sys, &AliasDisamb{}, task)
	if conf.TP == 0 {
		t.Fatalf("Alias-Disamb found nothing: %s", conf)
	}
}

func TestAliasDisambRarity(t *testing.T) {
	bm := newBigramModel()
	for i := 0; i < 50; i++ {
		bm.add("john")
	}
	bm.add("xqzkvw")
	common := bm.rarityScore("john")
	rare := bm.rarityScore("xqzkvw")
	if rare <= common {
		t.Fatalf("rare name should score higher: %v vs %v", rare, common)
	}
	if bm.rarityScore("") != 0 {
		t.Fatal("empty username rarity should be 0")
	}
}

func TestSMaShDiscoversLinkagePoints(t *testing.T) {
	sys, task := fixture(t, 60, platform.EnglishPlatforms, 23)
	s := &SMaSh{}
	conf := evalLinker(t, sys, s, task)
	if conf.TP == 0 {
		t.Fatalf("SMaSh found nothing: %s", conf)
	}
	pts := s.points[[2]platform.ID{platform.Twitter, platform.Facebook}]
	if len(pts) == 0 {
		t.Fatal("no linkage points stored")
	}
	// Email must rank among the discovered points with high selectivity.
	foundEmail := false
	for _, lp := range pts {
		if lp.Attr == platform.AttrEmail {
			foundEmail = true
			if lp.Selectivity < 0.9 {
				t.Fatalf("email selectivity = %v, want near 1", lp.Selectivity)
			}
		}
	}
	if !foundEmail {
		t.Fatal("email linkage point not discovered")
	}
}

func TestSMaShReversedPlatformOrder(t *testing.T) {
	sys, task := fixture(t, 40, platform.EnglishPlatforms, 29)
	s := &SMaSh{}
	if err := s.Fit(sys, task); err != nil {
		t.Fatal(err)
	}
	// Score with platforms swapped: must not error.
	if _, err := s.PairScore(platform.Facebook, 0, platform.Twitter, 0); err != nil {
		t.Fatalf("reversed order: %v", err)
	}
}

func TestUnfittedBaselinesError(t *testing.T) {
	for _, l := range []core.Linker{&MOBIUS{}, &AliasDisamb{}, &SMaSh{}} {
		if _, err := l.PairScore(platform.Twitter, 0, platform.Facebook, 0); err == nil {
			t.Fatalf("%s should error before Fit", l.Name())
		}
	}
}

func TestHydraOutperformsBaselines(t *testing.T) {
	sys, task := fixture(t, 60, platform.EnglishPlatforms, 31)
	hydra := &core.HydraLinker{Cfg: core.DefaultConfig(31)}
	confH := evalLinker(t, sys, hydra, task)
	for _, l := range []core.Linker{&MOBIUS{}, &AliasDisamb{}, &SMaSh{}} {
		conf := evalLinker(t, sys, l, task)
		if conf.F1() > confH.F1()+0.02 {
			t.Fatalf("%s (F1=%v) should not beat HYDRA (F1=%v)", l.Name(), conf.F1(), confH.F1())
		}
	}
}
