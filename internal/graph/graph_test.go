package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 1) // accumulates
	g.AddEdge(1, 2, 5)
	g.AddEdge(2, 2, 9) // self-loop ignored
	if g.Len() != 4 {
		t.Fatal("Len")
	}
	if g.Weight(0, 1) != 3 || g.Weight(1, 0) != 3 {
		t.Fatalf("Weight = %v / %v, want 3 both ways", g.Weight(0, 1), g.Weight(1, 0))
	}
	if g.Weight(2, 2) != 0 || g.Degree(2) != 1 {
		t.Fatal("self-loop should be ignored")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatalf("Degrees = %d %d %d", g.Degree(0), g.Degree(1), g.Degree(3))
	}
	nbrs := g.Neighbors(1)
	if len(nbrs) != 2 || nbrs[0] != 0 || nbrs[1] != 2 {
		t.Fatalf("Neighbors = %v", nbrs)
	}
}

func TestGraphOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddEdge(0, 5, 1)
}

func TestTopFriends(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 30)
	g.AddEdge(0, 3, 20)
	g.AddEdge(0, 4, 20)
	top := g.TopFriends(0, 3)
	if len(top) != 3 {
		t.Fatalf("TopFriends len = %d", len(top))
	}
	if top[0].ID != 2 {
		t.Fatalf("top friend = %+v", top[0])
	}
	// Tie between 3 and 4 broken by id.
	if top[1].ID != 3 || top[2].ID != 4 {
		t.Fatalf("tie break wrong: %+v", top)
	}
	// k beyond degree truncates.
	if got := g.TopFriends(1, 5); len(got) != 1 {
		t.Fatalf("over-k = %v", got)
	}
}

func TestHopDistance(t *testing.T) {
	g := pathGraph(5) // 0-1-2-3-4
	cases := []struct {
		u, v, want int
		ok         bool
	}{
		{0, 0, 0, false}, // u itself is not in its own neighbourhood
		{0, 1, 0, true},  // direct friends: zero intermediates
		{0, 2, 1, true},
		{0, 4, 3, true},
		{2, 0, 1, true},
	}
	for _, c := range cases {
		got, ok := g.Hops(c.u, 5)[c.v]
		if ok != c.ok || got != c.want {
			t.Errorf("Hops(%d)[%d] = %d,%v want %d,%v", c.u, c.v, got, ok, c.want, c.ok)
		}
	}
	// Cap: 0 to 4 needs 3 intermediates; cap at 2 leaves it out.
	if hops := g.Hops(0, 2); len(hops) != 3 || hops[3] != 2 {
		t.Fatalf("Hops(0, 2) = %v, want nodes 1..3 only", hops)
	}
	// Disconnected.
	g2 := New(3)
	g2.AddEdge(0, 1, 1)
	if _, ok := g2.Hops(0, 5)[2]; ok {
		t.Fatal("unreachable node reported reachable")
	}
	if len(g2.Hops(2, 5)) != 0 {
		t.Fatal("an isolated node has a neighbourhood")
	}
}

// Property: hop distance is symmetric — v is in u's neighbourhood exactly
// when u is in v's, at the same intermediate count — at every cap.
func TestHopDistanceSymmetryProperty(t *testing.T) {
	f := func(seed uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 8
		g := New(n)
		for k := 0; k < 12; k++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1)
		}
		u, v := rng.Intn(n), rng.Intn(n)
		maxHops := rng.Intn(n)
		duv, ok1 := g.Hops(u, maxHops)[v]
		dvu, ok2 := g.Hops(v, maxHops)[u]
		if ok1 != ok2 {
			return false
		}
		if ok1 && duv != dvu {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
