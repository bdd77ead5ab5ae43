// Package core implements HYDRA itself: the end-to-end linkage system of
// the paper. It wires the heterogeneous behavior model (internal/features),
// the structure-consistency graph (internal/structure) and the
// multi-objective dual solver (Eqns 13–17 via internal/qp) into Algorithm 1,
// with the two missing-data variants of Section 6.3: HYDRA-M (friend-based
// imputation, Eqn 18) and HYDRA-Z (zero fill).
package core

import (
	"sort"
	"sync"

	"hydra/internal/attr"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/vision"
)

// Variant selects the missing-feature treatment.
type Variant int

// The two variants evaluated in the paper's Figure 15.
const (
	// HydraM fills a missing feature with the average of the same feature
	// over the top-3 interacting friends on each side (Eqn 18).
	HydraM Variant = iota
	// HydraZ fills missing features with zeros (the degenerate baseline).
	HydraZ
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == HydraM {
		return "HYDRA-M"
	}
	return "HYDRA-Z"
}

// System is the dataset-backed half of the Source split: the trained
// feature pipeline over a raw dataset, building per-account views lazily
// and imputing through the live interaction graph. It is what training
// runs against; a LazyStore answers the same Source contract from a
// snapshot with no dataset. The view and pair caches are mutex-guarded, so a
// System is safe for concurrent use — the parallel feature assembly,
// evaluation and experiment sweeps all share one instance.
type System struct {
	DS   *platform.Dataset
	Pipe *features.Pipeline

	mu    sync.Mutex
	views map[platform.ID][]*features.AccountView
	pairs pairCache
	faces *vision.Matcher
	seed  int64
}

var _ Source = (*System)(nil)

// NewSystem builds the pipeline (attribute importance from the provided
// labeled profile pairs, LDA over the corpus) and prepares lazy view
// construction.
func NewSystem(ds *platform.Dataset, labeled []attr.LabeledPair, lx features.Lexicons, cfg features.Config) (*System, error) {
	pipe, err := features.NewPipeline(ds, labeled, lx, cfg)
	if err != nil {
		return nil, err
	}
	return &System{
		DS:    ds,
		Pipe:  pipe,
		views: make(map[platform.ID][]*features.AccountView),
		faces: vision.NewMatcher(cfg.Seed),
		seed:  cfg.Seed,
	}, nil
}

// Faces exposes the simulated face matcher (blocking uses it).
func (s *System) Faces() *vision.Matcher { return s.faces }

// Views returns (building on first use) the account views of a platform.
// The build happens under the cache lock so concurrent callers get the
// same slice and each view is constructed exactly once.
func (s *System) Views(id platform.ID) ([]*features.AccountView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewsLocked(id)
}

func (s *System) viewsLocked(id platform.ID) ([]*features.AccountView, error) {
	if v, ok := s.views[id]; ok {
		return v, nil
	}
	p, err := s.DS.Platform(id)
	if err != nil {
		return nil, err
	}
	views := make([]*features.AccountView, p.NumAccounts())
	for i, acc := range p.Accounts {
		views[i] = s.Pipe.BuildView(acc)
	}
	s.views[id] = views
	return views, nil
}

// NumAccounts returns a platform's account count straight from the
// dataset (no views are built), -1 if the dataset lacks the platform.
func (s *System) NumAccounts(id platform.ID) int {
	p, err := s.DS.Platform(id)
	if err != nil {
		return -1
	}
	return p.NumAccounts()
}

// Embeddings returns the behavior embeddings x_i of all accounts on a
// platform, indexed by local id.
func (s *System) Embeddings(id platform.ID) ([]linalg.Vector, error) {
	views, err := s.Views(id)
	if err != nil {
		return nil, err
	}
	out := make([]linalg.Vector, len(views))
	for i, v := range views {
		out[i] = v.Embedding
	}
	return out, nil
}

// RawPair returns the (cached) unimputed pair vector between account a on
// platform pa and account b on platform pb. The similarity computation
// itself runs outside the lock; when two goroutines race on an uncached
// pair both compute the same deterministic vector and one write wins.
func (s *System) RawPair(pa platform.ID, a int, pb platform.ID, b int) (features.PairVector, error) {
	key := pairKey{pa, pb, a, b}
	if pv, ok := s.pairs.lookup(key); ok {
		return pv, nil
	}
	s.mu.Lock()
	va, err := s.viewsLocked(pa)
	if err != nil {
		s.mu.Unlock()
		return features.PairVector{}, err
	}
	vb, err := s.viewsLocked(pb)
	if err != nil {
		s.mu.Unlock()
		return features.PairVector{}, err
	}
	s.mu.Unlock()
	if err := checkPairRange(pa, a, pb, b, len(va), len(vb)); err != nil {
		return features.PairVector{}, err
	}
	pv := s.Pipe.Pair(va[a], vb[b])
	s.pairs.store(key, pv)
	return pv, nil
}

// LimitPairCache bounds the pair-vector cache to at most n entries,
// trimming immediately if it is already larger (n ≤ 0 restores the
// default unbounded behavior). One-shot batch runs touch each pair a
// bounded number of times and want everything cached, but a long-lived
// serving process answering arbitrary queries would otherwise grow the
// cache monotonically until OOM — the serve engine caps it at startup.
// Eviction is arbitrary-entry, and correctness never depends on cache
// contents.
func (s *System) LimitPairCache(n int) { s.pairs.limit(n) }

// Impute returns the pair vector with missing dimensions filled according
// to the variant, resolving friends through the live interaction graph
// (see imputePairInto for the shared Eqn-18 implementation).
func (s *System) Impute(pa platform.ID, a int, pb platform.ID, b int, v Variant, topFriends int) (linalg.Vector, error) {
	return imputePair(s, nil, pa, a, pb, b, v, topFriends)
}

// Friends reads the top-k most-interacting friends off the dataset's
// live interaction graph.
func (s *System) Friends(id platform.ID, local, k int) ([]graph.Friend, error) {
	p, err := s.DS.Platform(id)
	if err != nil {
		return nil, err
	}
	return p.Graph.TopFriends(local, k), nil
}

// CacheSize reports the number of cached pair vectors (diagnostics).
func (s *System) CacheSize() int { return s.pairs.size() }

// PairCacheStats reports the pair-cache hit/miss counters since process
// start (imputation health for /metrics).
func (s *System) PairCacheStats() (hits, misses uint64) { return s.pairs.stats() }

// LabeledProfilePairs assembles attribute-importance training pairs from
// ground truth: for the given persons, the true cross-platform profile pair
// (positive) and one shifted mismatch (negative). This plays the role of
// the paper's user-provided cross-login label collection.
func LabeledProfilePairs(ds *platform.Dataset, pa, pb platform.ID, persons []int) []attr.LabeledPair {
	platA := ds.Platforms[pa]
	platB := ds.Platforms[pb]
	if platA == nil || platB == nil {
		return nil
	}
	sorted := append([]int(nil), persons...)
	sort.Ints(sorted)
	var out []attr.LabeledPair
	for i, person := range sorted {
		la, okA := ds.AccountOf(person, pa)
		lb, okB := ds.AccountOf(person, pb)
		if !okA || !okB {
			continue
		}
		out = append(out, attr.LabeledPair{
			A:        &platA.Accounts[la].Profile,
			B:        &platB.Accounts[lb].Profile,
			Positive: true,
		})
		// Negative: pair with the next person's account on pb.
		other := sorted[(i+1)%len(sorted)]
		if other == person {
			continue
		}
		if lbNeg, ok := ds.AccountOf(other, pb); ok {
			out = append(out, attr.LabeledPair{
				A:        &platA.Accounts[la].Profile,
				B:        &platB.Accounts[lbNeg].Profile,
				Positive: false,
			})
		}
	}
	return out
}
