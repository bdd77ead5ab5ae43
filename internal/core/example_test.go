package core_test

import (
	"fmt"
	"log"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

// ExampleHydraLinker walks the library API end to end: a synthetic
// Twitter+Facebook world of 60 persons, the feature system, one block of
// candidate pairs with labels, a HYDRA fit at default settings, its
// linkage quality against the generator's ground truth, and one pair
// scored directly.
func ExampleHydraLinker() {
	world, err := synth.Generate(synth.DefaultConfig(60, platform.EnglishPlatforms, 42))
	if err != nil {
		log.Fatal(err)
	}

	// Attribute importance is learned from a handful of known profile
	// pairs; LDA and the lexicon models train on the corpus.
	known := core.LabeledProfilePairs(world.Dataset, platform.Twitter, platform.Facebook,
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	sys, err := core.NewSystem(world.Dataset, known, features.Lexicons{
		Genre:     world.Lexicons.Genre,
		Sentiment: world.Lexicons.Sentiment,
	}, features.DefaultConfig(42))
	if err != nil {
		log.Fatal(err)
	}

	block, err := core.BuildBlock(sys, platform.Twitter, platform.Facebook,
		blocking.DefaultRules(), core.DefaultLabelOpts(42))
	if err != nil {
		log.Fatal(err)
	}
	task := &core.Task{Blocks: []*core.Block{block}}
	hydra := &core.HydraLinker{Cfg: core.DefaultConfig(42)}
	if err := hydra.Fit(sys, task); err != nil {
		log.Fatal(err)
	}

	conf, err := core.EvaluateLinkerWorkers(sys, hydra, task.Blocks, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("linkage quality:", conf)

	a, _ := world.Dataset.AccountOf(7, platform.Twitter)
	b, _ := world.Dataset.AccountOf(7, platform.Facebook)
	score, err := hydra.PairScore(platform.Twitter, a, platform.Facebook, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("person 7's accounts score %+.3f (positive = same person)\n", score)
	// Output:
	// linkage quality: P=0.967 R=0.967 F1=0.967 (tp=58 fp=2 fn=2)
	// person 7's accounts score +1.000 (positive = same person)
}
