package structure

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hydra/internal/graph"
	"hydra/internal/linalg"
)

// twoPlatformFixture builds the Figure-7 scenario: three real friends
// (Alice=0, Bob=1, Henry=2) present on both platforms with consistent
// structure, plus an impostor (node 3) disconnected from everyone.
//
// Embeddings: each person has the same embedding on both platforms; the
// impostor pretends to be Alice (same embedding) but has no social ties.
func twoPlatformFixture() (cands []Candidate, embA, embB []linalg.Vector, gA, gB *graph.Graph) {
	gA = graph.New(4)
	gB = graph.New(4)
	// Friendship triangle on both platforms.
	gA.AddEdge(0, 1, 5)
	gA.AddEdge(1, 2, 5)
	gA.AddEdge(0, 2, 5)
	gB.AddEdge(0, 1, 5)
	gB.AddEdge(1, 2, 5)
	gB.AddEdge(0, 2, 5)

	mk := func(a, b, c float64) linalg.Vector { return linalg.Vector{a, b, c} }
	embA = []linalg.Vector{mk(1, 0, 0), mk(0, 1, 0), mk(0, 0, 1), mk(1, 0, 0)}
	embB = []linalg.Vector{mk(1, 0, 0), mk(0, 1, 0), mk(0, 0, 1), mk(1, 0, 0)}

	// Candidates: the three true pairs, plus the impostor pair (3 on A →
	// 0 on B): behaviorally plausible, structurally isolated.
	cands = []Candidate{{0, 0}, {1, 1}, {2, 2}, {3, 0}}
	return
}

func TestBuildValidation(t *testing.T) {
	_, _, _, gA, gB := func() (c []Candidate, a, b []linalg.Vector, g1, g2 *graph.Graph) {
		return nil, nil, nil, graph.New(1), graph.New(1)
	}()
	if _, err := Build(nil, nil, nil, gA, gB, DefaultConfig()); err == nil {
		t.Fatal("expected error for empty candidates")
	}
	cfg := DefaultConfig()
	cfg.Sigma1 = 0
	if _, err := Build([]Candidate{{0, 0}}, []linalg.Vector{{1}}, []linalg.Vector{{1}}, gA, gB, cfg); err == nil {
		t.Fatal("expected error for bad bandwidth")
	}
}

func TestBuildDiagonal(t *testing.T) {
	cands, embA, embB, gA, gB := twoPlatformFixture()
	m, err := Build(cands, embA, embB, gA, gB, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Identical embeddings: M(a,a) = exp(0) = 1.
	for a := 0; a < 3; a++ {
		if got := m.Dense().At(a, a); math.Abs(got-1) > 1e-12 {
			t.Fatalf("M(%d,%d) = %v, want 1", a, a, got)
		}
	}
}

func TestBuildAgreementLinks(t *testing.T) {
	cands, embA, embB, gA, gB := twoPlatformFixture()
	m, err := Build(cands, embA, embB, gA, gB, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// True pairs (0,1,2) are mutual friends on both platforms with equal
	// hop distances -> strong agreement links.
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			if m.Dense().At(a, b) <= 0 {
				t.Fatalf("expected agreement link between true pairs %d,%d", a, b)
			}
			if math.Abs(m.Dense().At(a, b)-m.Dense().At(b, a)) > 1e-12 {
				t.Fatal("M not symmetric")
			}
		}
	}
	// The impostor candidate (index 3) has no A-side edges: no agreement.
	for b := 0; b < 3; b++ {
		if m.Dense().At(3, b) != 0 {
			t.Fatalf("impostor should have no agreement links, got M(3,%d)=%v", b, m.Dense().At(3, b))
		}
	}
}

func TestAgreementClusterFindsTruePairs(t *testing.T) {
	cands, embA, embB, gA, gB := twoPlatformFixture()
	m, err := Build(cands, embA, embB, gA, gB, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scores, err := AgreementCluster(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// True pairs score high; the impostor scores (near) zero relative to
	// the cluster despite identical behavior similarity.
	for a := 0; a < 3; a++ {
		if scores[a] < 0.5 {
			t.Fatalf("true pair %d score %v too low: %v", a, scores[a], scores)
		}
	}
	if scores[3] > 0.3 {
		t.Fatalf("impostor score %v should be near 0 (scores %v)", scores[3], scores)
	}
}

func TestStructTermFiltersInconsistentDistances(t *testing.T) {
	// Two candidates whose A-side nodes are direct friends (d=1) but whose
	// B-side nodes are 2 hops apart (d=(1+1)²=4): with σ₂ small enough the
	// structural term (1 - (1-4)²/σ₂²) goes negative -> no link.
	gA := graph.New(2)
	gA.AddEdge(0, 1, 1)
	gB := graph.New(3)
	gB.AddEdge(0, 2, 1)
	gB.AddEdge(2, 1, 1) // 0-2-1: one intermediate
	emb := []linalg.Vector{{0}, {0}, {0}}
	cands := []Candidate{{0, 0}, {1, 1}}
	cfg := Config{Sigma1: 1, Sigma2: 2.9, MaxHops: 2} // (d_ij−d_i'j')² = 9 > σ₂²
	m, err := Build(cands, emb[:2], emb, gA, gB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dense().At(0, 1) != 0 {
		t.Fatalf("inconsistent pair should have 0 affinity, got %v", m.Dense().At(0, 1))
	}
	// With a larger σ₂ the link appears.
	cfg.Sigma2 = 10
	m, err = Build(cands, emb[:2], emb, gA, gB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dense().At(0, 1) <= 0 {
		t.Fatal("consistent-enough pair should have positive affinity")
	}
}

func TestLaplacianRowSumsZero(t *testing.T) {
	cands, embA, embB, gA, gB := twoPlatformFixture()
	m, err := Build(cands, embA, embB, gA, gB, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := Laplacian(m)
	ones := linalg.NewVector(l.Rows).Fill(1)
	if l.MulVec(ones).Norm() > 1e-9 {
		t.Fatal("Laplacian rows should sum to zero")
	}
}

// The k-hop neighbourhood Build joins candidates over: every node within
// MaxHops intermediate hops of u, at its intermediate count, u excluded.
func TestKhopNeighborhood(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	nbrs := g.Hops(0, 2)
	if nbrs[1] != 0 || nbrs[2] != 1 || nbrs[3] != 2 {
		t.Fatalf("neighborhood = %v", nbrs)
	}
	if _, ok := nbrs[4]; ok {
		t.Fatal("disconnected node in neighborhood")
	}
	if _, ok := nbrs[0]; ok {
		t.Fatal("self in neighborhood")
	}
}

// randomFixture builds two seeded random platforms of n nodes each, with
// the last fifth of each side isolated, and a candidate list in which
// every A account claims up to four B accounts and B accounts are
// claimed by several A accounts — the conflicting assignments Build
// must leave at zero affinity.
func randomFixture(rng *rand.Rand, n, degree int) (cands []Candidate, embA, embB []linalg.Vector, gA, gB *graph.Graph) {
	linked := n - n/5
	randomGraph := func() *graph.Graph {
		g := graph.New(n)
		for k := 0; k < linked*degree/2; k++ {
			g.AddEdge(rng.Intn(linked), rng.Intn(linked), 1+rng.Float64())
		}
		return g
	}
	gA, gB = randomGraph(), randomGraph()
	emb := func() []linalg.Vector {
		out := make([]linalg.Vector, n)
		for i := range out {
			out[i] = linalg.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		return out
	}
	embA, embB = emb(), emb()
	for a := 0; a < n; a++ {
		for k := rng.Intn(5); k > 0; k-- {
			cands = append(cands, Candidate{A: a, B: rng.Intn(n)})
		}
	}
	return cands, embA, embB, gA, gB
}

// perPairBuild is Build as it was before neighbourhoods were shared: a
// fresh A-side BFS per candidate and a fresh B-side BFS per joined
// candidate pair, each over sorted neighbour lists. It is the reference
// TestBuildMatchesPerPairBFS holds Build to.
func perPairBuild(cands []Candidate, embA, embB []linalg.Vector, gA, gB *graph.Graph, cfg Config) *linalg.Sparse {
	n := len(cands)
	selfDist := make([]float64, n)
	for a, c := range cands {
		selfDist[a] = linalg.SqDist(embA[c.A], embB[c.B])
	}
	byA := make(map[int][]int)
	for idx, c := range cands {
		byA[c.A] = append(byA[c.A], idx)
	}
	b := linalg.NewSparseBuilder(n, n)
	s1sq := cfg.Sigma1 * cfg.Sigma1
	s2sq := cfg.Sigma2 * cfg.Sigma2
	for a, ca := range cands {
		b.Set(a, a, expNeg(selfDist[a]/s1sq))
		for j, kij := range refNeighborhood(gA, ca.A, cfg.MaxHops) {
			for _, bIdx := range byA[j] {
				if bIdx <= a {
					continue
				}
				cb := cands[bIdx]
				if cb.A == ca.A || cb.B == ca.B {
					continue
				}
				kb, ok := refHopDistance(gB, ca.B, cb.B, cfg.MaxHops)
				if !ok {
					continue
				}
				dij := float64(kij+1) * float64(kij+1)
				dipjp := float64(kb+1) * float64(kb+1)
				diff := dij - dipjp
				structTerm := 1 - diff*diff/s2sq
				if structTerm <= 0 {
					continue
				}
				v := expNeg((selfDist[a]+selfDist[bIdx])/(2*s1sq)) * structTerm
				if v <= 0 {
					continue
				}
				b.Set(a, bIdx, v)
				b.Set(bIdx, a, v)
			}
		}
	}
	return b.Build()
}

// refNeighborhood is the reference k-hop search: visited set, sorted
// neighbour lists, level by level.
func refNeighborhood(g *graph.Graph, u, maxHops int) map[int]int {
	out := make(map[int]int)
	visited := map[int]bool{u: true}
	frontier := []int{u}
	for depth := 1; depth <= maxHops+1 && len(frontier) > 0; depth++ {
		var next []int
		for _, x := range frontier {
			for _, y := range g.Neighbors(x) {
				if visited[y] {
					continue
				}
				visited[y] = true
				out[y] = depth - 1
				next = append(next, y)
			}
		}
		frontier = next
	}
	return out
}

// refHopDistance is the reference per-pair search: a BFS from u that
// stops at the first level reaching v.
func refHopDistance(g *graph.Graph, u, v, maxHops int) (int, bool) {
	visited := map[int]bool{u: true}
	frontier := []int{u}
	for depth := 1; depth <= maxHops+1 && len(frontier) > 0; depth++ {
		var next []int
		for _, x := range frontier {
			for _, y := range g.Neighbors(x) {
				if visited[y] {
					continue
				}
				if y == v {
					return depth - 1, true
				}
				visited[y] = true
				next = append(next, y)
			}
		}
		frontier = next
	}
	return 0, false
}

// TestBuildMatchesPerPairBFS holds Build's shared per-account
// neighbourhoods to the per-pair construction: on seeded random graphs
// with isolated nodes, several candidates per account and conflicting
// claims, at every hop cap and at bandwidths that both keep and clip the
// structure term, the sparse matrix must be bit-identical.
func TestBuildMatchesPerPairBFS(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cands, embA, embB, gA, gB := randomFixture(rng, 20+rng.Intn(40), 2+rng.Intn(4))
		if len(cands) == 0 {
			continue
		}
		for maxHops := 1; maxHops <= 3; maxHops++ {
			for _, sigma2 := range []float64{2.9, 6, 40} {
				cfg := Config{Sigma1: 0.5, Sigma2: sigma2, MaxHops: maxHops}
				got, err := Build(cands, embA, embB, gA, gB, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := perPairBuild(cands, embA, embB, gA, gB, cfg)
				if !reflect.DeepEqual(got.RowPtr, want.RowPtr) || !reflect.DeepEqual(got.ColIdx, want.ColIdx) {
					t.Fatalf("seed %d hops %d σ₂ %g: sparsity pattern differs (%d vs %d entries)",
						seed, maxHops, sigma2, got.NNZ(), want.NNZ())
				}
				for i := range want.Val {
					if math.Float64bits(got.Val[i]) != math.Float64bits(want.Val[i]) {
						t.Fatalf("seed %d hops %d σ₂ %g: entry %d is %v, want %v",
							seed, maxHops, sigma2, i, got.Val[i], want.Val[i])
					}
				}
				if seed == 1 && maxHops == 2 && sigma2 == 6 && got.NNZ() <= len(cands) {
					t.Fatal("the fixture has no off-diagonal affinity — the comparison exercised nothing")
				}
			}
		}
	}
}

// BenchmarkStructureBuild times Eqn 9's matrix over a seeded synthetic
// platform pair: 200 accounts a side, ≈ 400 candidates, about the size of
// the benchmark world's training block.
func BenchmarkStructureBuild(b *testing.B) {
	cands, embA, embB, gA, gB := randomFixture(rand.New(rand.NewSource(1)), 200, 8)
	cfg := DefaultConfig()
	cfg.Sigma1 = 0.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cands, embA, embB, gA, gB, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: M is symmetric with non-negative entries and unit-bounded
// diagonal for random candidate sets.
func TestBuildMatrixProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := 5
		gA := graph.New(n)
		gB := graph.New(n)
		for k := 0; k < n; k++ {
			gA.AddEdge(int(seed+uint8(k))%n, int(seed+uint8(2*k+1))%n, 1)
			gB.AddEdge(int(seed+uint8(3*k))%n, int(seed+uint8(k+2))%n, 1)
		}
		emb := make([]linalg.Vector, n)
		for i := range emb {
			emb[i] = linalg.Vector{float64(i) / 5, float64((i * int(seed+1)) % 3)}
		}
		var cands []Candidate
		for i := 0; i < n; i++ {
			cands = append(cands, Candidate{i, (i + int(seed)) % n})
		}
		m, err := Build(cands, emb, emb, gA, gB, DefaultConfig())
		if err != nil {
			return false
		}
		md := m.Dense()
		for i := 0; i < md.Rows; i++ {
			if d := md.At(i, i); d < 0 || d > 1 {
				return false
			}
			for j := 0; j < md.Cols; j++ {
				if md.At(i, j) < 0 || math.Abs(md.At(i, j)-md.At(j, i)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// DefaultConfig returns the calibrated bandwidths. σ₂ = 6 keeps agreement
// between equal or adjacent hop distances (d ∈ {1,4,9} ⇒ |Δd| ∈ {0,3,5,8})
// but rejects the direct-friend vs two-hop mismatch.
func DefaultConfig() Config {
	return Config{Sigma1: 0.1, Sigma2: 6, MaxHops: 2}
}
