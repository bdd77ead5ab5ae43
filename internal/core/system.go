// Package core implements HYDRA itself: the end-to-end linkage system of
// the paper. It wires the heterogeneous behavior model (internal/features),
// the structure-consistency graph (internal/structure) and the
// multi-objective dual solver (Eqns 13–17 via internal/qp) into Algorithm 1,
// with the two missing-data variants of Section 6.3: HYDRA-M (friend-based
// imputation, Eqn 18) and HYDRA-Z (zero fill).
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"hydra/internal/attr"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/parallel"
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

// System is the training-side feature system: the feature pipeline
// fitted over a raw dataset. It answers every feature query — RawPair,
// Impute, Friends, Faces, the pair cache — as the embedded *LazyStore
// over a live snapshot of its own dataset, so training, packing and
// serving all read through one store type. Views are built per platform
// on first use; the store's caches are mutex-guarded, so a System is safe
// for concurrent use — the parallel feature assembly, evaluation and
// experiment sweeps all share one instance.
type System struct {
	*LazyStore
	DS   *platform.Dataset
	Pipe *features.Pipeline

	snap *datasetSnapshot
}

// NewSystem builds the pipeline (attribute importance from the provided
// labeled profile pairs, LDA over the corpus) and prepares lazy view
// construction.
func NewSystem(ds *platform.Dataset, labeled []attr.LabeledPair, lx features.Lexicons, cfg features.Config) (*System, error) {
	pipe, err := features.NewPipeline(ds, labeled, lx, cfg)
	if err != nil {
		return nil, err
	}
	snap := newDatasetSnapshot(ds, pipe)
	// The snapshot hands out each account's full friend ranking, so the
	// store serves any imputation depth.
	st, err := NewLazyStore(pipe, snap, math.MaxInt, vision.NewMatcher(cfg.Seed))
	if err != nil {
		return nil, err
	}
	return &System{LazyStore: st, DS: ds, Pipe: pipe, snap: snap}, nil
}

// Views returns (building on first use) the account views of a platform.
// Concurrent callers get the same slice and each view is constructed
// exactly once.
func (s *System) Views(id platform.ID) ([]*features.AccountView, error) {
	return s.snap.views(id)
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

// datasetSnapshot is the LazySnapshot behind a System's store: the
// dataset itself, with each platform's views built on first use and each
// account's full TopFriends ranking cached, so the prefix any
// Config.TopFriends asks for is exactly the live graph's answer. It is a
// type of its own because its Friends(id, local) would collide with the
// store's Friends(id, local, k) on System.
type datasetSnapshot struct {
	pipe  *features.Pipeline
	plats []platform.ID
	byID  map[platform.ID]*datasetPlatform // fixed at construction
}

type datasetPlatform struct {
	p                      *platform.Platform
	viewsOnce, friendsOnce sync.Once
	views                  []*features.AccountView
	friends                [][]graph.Friend
}

func newDatasetSnapshot(ds *platform.Dataset, pipe *features.Pipeline) *datasetSnapshot {
	s := &datasetSnapshot{pipe: pipe, byID: make(map[platform.ID]*datasetPlatform, len(ds.Platforms))}
	for id, p := range ds.Platforms {
		s.plats = append(s.plats, id)
		s.byID[id] = &datasetPlatform{p: p}
	}
	sort.Slice(s.plats, func(i, j int) bool { return s.plats[i] < s.plats[j] })
	return s
}

func (s *datasetSnapshot) Platforms() []platform.ID { return s.plats }

func (s *datasetSnapshot) NumAccounts(id platform.ID) int {
	if dp := s.byID[id]; dp != nil {
		return dp.p.NumAccounts()
	}
	return -1
}

// account returns the entry of an account's platform, range-checking
// local (the store checks first; this keeps the snapshot safe alone).
func (s *datasetSnapshot) account(id platform.ID, local int) (*datasetPlatform, error) {
	dp := s.byID[id]
	if dp == nil {
		return nil, fmt.Errorf("core: no platform %s in dataset", id)
	}
	if local < 0 || local >= dp.p.NumAccounts() {
		return nil, fmt.Errorf("core: account %d out of range (%s has %d)", local, id, dp.p.NumAccounts())
	}
	return dp, nil
}

func (s *datasetSnapshot) views(id platform.ID) ([]*features.AccountView, error) {
	dp := s.byID[id]
	if dp == nil {
		return nil, fmt.Errorf("core: no platform %s in dataset", id)
	}
	return dp.buildViews(s.pipe), nil
}

// buildViews returns the platform's views, building them on first use.
// Every other caller waits on the Once meanwhile, so the build fans out
// over all cores; BuildView is a pure function of pipeline and account,
// and each view lands in its own slot.
func (dp *datasetPlatform) buildViews(pipe *features.Pipeline) []*features.AccountView {
	dp.viewsOnce.Do(func() {
		dp.views = parallel.Map(0, dp.p.NumAccounts(), func(i int) *features.AccountView {
			return pipe.BuildView(dp.p.Accounts[i])
		})
	})
	return dp.views
}

func (s *datasetSnapshot) View(id platform.ID, local int) (*features.AccountView, error) {
	dp, err := s.account(id, local)
	if err != nil {
		return nil, err
	}
	return dp.buildViews(s.pipe)[local], nil
}

// Friends returns the account's full friend ranking (descending
// interaction weight, ties by ascending id), ranked for the whole
// platform on first use.
func (s *datasetSnapshot) Friends(id platform.ID, local int) ([]graph.Friend, error) {
	dp, err := s.account(id, local)
	if err != nil {
		return nil, err
	}
	dp.friendsOnce.Do(func() {
		g := dp.p.Graph
		dp.friends = make([][]graph.Friend, dp.p.NumAccounts())
		for u := range dp.friends {
			dp.friends[u] = g.TopFriends(u, g.Degree(u))
		}
	})
	return dp.friends[local], nil
}

func (s *datasetSnapshot) Username(id platform.ID, local int) (string, bool) {
	dp, err := s.account(id, local)
	if err != nil {
		return "", false
	}
	return dp.p.Accounts[local].Profile.Username, true
}

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
