// Package graph implements the social-structure substrate of HYDRA: the
// per-platform interaction graph, k-hop neighbourhoods for the structure
// consistency matrix (d_ij = (k_ij+1)² in Eqn 9) and the
// interaction-weighted "core structure" (top-k most contacted friends,
// Section 6.2/6.3).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected weighted interaction graph over node ids
// 0..N-1. Edge weights count interactions (comments, reposts, mentions):
// higher weight = more frequent contact.
type Graph struct {
	n   int
	adj []map[int]float64
}

// New returns an empty graph over n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	g := &Graph{n: n, adj: make([]map[int]float64, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]float64)
	}
	return g
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.n }

// AddEdge accumulates weight w onto the undirected edge (u,v). Self-loops
// are ignored.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		return
	}
	g.check(u)
	g.check(v)
	g.adj[u][v] += w
	g.adj[v][u] += w
}

// Weight returns the weight of edge (u,v), 0 if absent.
func (g *Graph) Weight(u, v int) float64 {
	g.check(u)
	g.check(v)
	return g.adj[u][v]
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// Neighbors returns the neighbor ids of u in ascending order.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// Friend is a neighbor with its interaction weight.
type Friend struct {
	ID     int
	Weight float64
}

// TopFriends returns the k most-interacted friends of u, sorted by
// descending weight (ties by ascending id for determinism). This is the
// paper's "core social structure": "friends with the most frequent
// interactions". Fewer than k friends are returned if u's degree is small.
func (g *Graph) TopFriends(u, k int) []Friend {
	g.check(u)
	fs := make([]Friend, 0, len(g.adj[u]))
	for v, w := range g.adj[u] {
		fs = append(fs, Friend{ID: v, Weight: w})
	}
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Weight != fs[j].Weight {
			return fs[i].Weight > fs[j].Weight
		}
		return fs[i].ID < fs[j].ID
	})
	if k < len(fs) {
		fs = fs[:k]
	}
	return fs
}

// Hops returns, for every node v reachable from u through at most maxHops
// intermediate users, the intermediate count k_uv (0 for direct friends, 1
// for friend-of-friend, ...). u itself and unreachable nodes are absent.
// The paper's structure distance is then d_uv = (k_uv + 1)². A BFS level
// does not depend on the order its frontier is visited in, so the map is a
// pure function of (g, u, maxHops).
func (g *Graph) Hops(u, maxHops int) map[int]int {
	g.check(u)
	out := make(map[int]int)
	frontier := []int{u}
	// Depth = number of edges; intermediates = depth-1.
	for depth := 1; depth <= maxHops+1 && len(frontier) > 0; depth++ {
		var next []int
		for _, x := range frontier {
			for y := range g.adj[x] {
				if _, seen := out[y]; seen || y == u {
					continue
				}
				out[y] = depth - 1
				next = append(next, y)
			}
		}
		frontier = next
	}
	return out
}
