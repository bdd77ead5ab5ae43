package structure_test

import (
	"fmt"
	"log"
	"sort"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/platform"
	"hydra/internal/structure"
	"hydra/internal/synth"
)

// ExampleAgreementCluster links with no labels at all: §6.2's relaxation
// of max yᵀMy, the principal eigenvector of the structure matrix M over a
// 90-person world's candidate pairs, ranks true pairs first.
func ExampleAgreementCluster() {
	world, err := synth.Generate(synth.DefaultConfig(90, platform.EnglishPlatforms, 11))
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.NewSystem(world.Dataset, nil, features.Lexicons{
		Genre: world.Lexicons.Genre, Sentiment: world.Lexicons.Sentiment,
	}, features.DefaultConfig(11))
	if err != nil {
		log.Fatal(err)
	}
	block, err := core.BuildBlock(sys, platform.Twitter, platform.Facebook,
		blocking.DefaultRules(), core.DefaultLabelOpts(11))
	if err != nil {
		log.Fatal(err)
	}

	embA, _ := sys.Embeddings(platform.Twitter)
	embB, _ := sys.Embeddings(platform.Facebook)
	pa, _ := sys.DS.Platform(platform.Twitter)
	pb, _ := sys.DS.Platform(platform.Facebook)
	cands := make([]structure.Candidate, len(block.Cands))
	for i, c := range block.Cands {
		cands[i] = structure.Candidate{A: c.A, B: c.B}
	}
	m, err := structure.Build(cands, embA, embB, pa.Graph, pb.Graph, structure.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	scores, err := structure.AgreementCluster(m, 11)
	if err != nil {
		log.Fatal(err)
	}

	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
	correct := 0
	for _, i := range order[:10] {
		if sys.DS.SamePerson(platform.Twitter, cands[i].A, platform.Facebook, cands[i].B) {
			correct++
		}
	}
	fmt.Printf("%d candidates, unsupervised top-10 precision %d/10\n", len(cands), correct)
	// Output:
	// 270 candidates, unsupervised top-10 precision 10/10
}
