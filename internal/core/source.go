package core

import (
	"fmt"

	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/vision"
)

// Source is the query-time contract shared by the two halves of the old
// monolithic System: the dataset-backed builder (System, which constructs
// views lazily from raw platform data) and the snapshot-backed LazyStore
// (which answers the same questions from precomputed state with no
// dataset at all). Everything Model scoring and the serving engine touch
// goes through this interface, so a trained model serves identically over
// either half.
type Source interface {
	// Views returns the per-account feature views of a platform, indexed
	// by local account id.
	Views(id platform.ID) ([]*features.AccountView, error)
	// NumAccounts returns a platform's account count without building or
	// materializing any view, -1 when the source does not carry it.
	NumAccounts(id platform.ID) int
	// RawPair returns the (cached) unimputed pair vector between account
	// a on platform pa and account b on platform pb.
	RawPair(pa platform.ID, a int, pb platform.ID, b int) (features.PairVector, error)
	// Impute returns the pair vector with missing dimensions filled
	// according to the variant (HYDRA-M's Eqn 18 or HYDRA-Z's zeros).
	Impute(pa platform.ID, a int, pb platform.ID, b int, v Variant, topFriends int) (linalg.Vector, error)
	// Friends resolves the top-k most-interacting friends of a local
	// account (the Eqn-18 core structure) — from the live interaction
	// graph in the builder, from the persisted adjacency slices in the
	// snapshot store. The serving fast path resolves friends itself (once
	// per A-side account per batch) instead of going through Impute.
	Friends(id platform.ID, local, k int) ([]graph.Friend, error)
	// Faces exposes the simulated face matcher (blocking uses it).
	Faces() *vision.Matcher
	// LimitPairCache bounds the pair-vector cache (n ≤ 0 = unbounded).
	LimitPairCache(n int)
	// CacheSize reports the number of cached pair vectors (diagnostics).
	CacheSize() int
}

// friendResolver resolves the top-k most-interacting friends of a local
// account. The plain Impute path reads straight through the Source; the
// serving fast path plugs in a per-batch memo (batchMemo) that caches
// the A side across rows sharing an account.
type friendResolver interface {
	resolveFriends(id platform.ID, local, k int) ([]graph.Friend, error)
}

// rawPairResolver resolves an unimputed pair vector — the Eqn-18
// friend-pair lookups go through it. The plain path reads straight
// through the Source (and its global, mutexed pairCache); the serving
// fast path plugs in a per-batch memo so one query resolves each
// (fa, fb) raw pair once without re-contending on the global cache.
type rawPairResolver interface {
	resolveRawPair(pa platform.ID, a int, pb platform.ID, b int) (features.PairVector, error)
}

// imputeResolver is what one imputation pass needs around the Source:
// friend resolution plus friend-pair raw vectors.
type imputeResolver interface {
	friendResolver
	rawPairResolver
}

// sourceResolver adapts a Source's Friends/RawPair methods as the
// pass-through imputeResolver.
type sourceResolver struct{ src Source }

func (sr sourceResolver) resolveFriends(id platform.ID, local, k int) ([]graph.Friend, error) {
	return sr.src.Friends(id, local, k)
}

func (sr sourceResolver) resolveRawPair(pa platform.ID, a int, pb platform.ID, b int) (features.PairVector, error) {
	return sr.src.RawPair(pa, a, pb, b)
}

// imputeScratch holds the reusable buffers of pair imputation: the
// Eqn-18 per-dimension accumulator. The zero value is ready to use; the
// serving fast path recycles instances through a pool so a warm query
// allocates nothing.
type imputeScratch struct {
	sums linalg.Vector
}

// imputePairInto is the shared Impute implementation of both Source
// halves: the variant dispatch and the friend-based imputation of Eqn 18,
// with the friend and friend-pair lookups abstracted so the builder
// reads the live graph, the store reads its precomputed top-friends
// slices, and the serving fast path memoizes both per batch. When tbl is
// non-nil and keyed at the same topFriends depth, a pair with missing
// dimensions is filled from the table's precomputed sums instead of the
// live friend walk — bit-identical by construction, since the table was
// accumulated by the same accumFriendPairSums loop. The imputed vector
// is appended to dst[:0] (pass nil to allocate a fresh, caller-owned
// vector) and returned, possibly regrown. topFriends is the
// core-structure size (the paper uses the top-3 most-interacting friends
// on each side); when fewer friends exist the average runs over the pairs
// that do (the natural generalization of Eqn 18's fixed /9).
func (sc *imputeScratch) imputePairInto(dst linalg.Vector, src Source, res imputeResolver, tbl *ImputeTable,
	pa platform.ID, a int, pb platform.ID, b int, v Variant, topFriends int) (linalg.Vector, error) {

	pv, err := src.RawPair(pa, a, pb, b)
	if err != nil {
		return nil, err
	}
	x := append(dst[:0], pv.X...)
	if v == HydraZ {
		return x, nil // missing dims are already zero
	}
	missing := false
	for _, m := range pv.Mask {
		if !m {
			missing = true
			break
		}
	}
	if !missing {
		return x, nil
	}
	if topFriends <= 0 {
		topFriends = DefaultTopFriends
	}
	if tbl != nil && tbl.k == topFriends && tbl.dim == len(x) {
		if sums, count, ok := tbl.lookup(pa, a, pb, b); ok {
			// count 0 is the recorded "no social context" verdict: the
			// missing dimensions stay zero, as the live path leaves them.
			if count != 0 {
				for d := range x {
					if !pv.Mask[d] {
						x[d] = sums[d] / count
					}
				}
			}
			return x, nil
		}
	}
	friendsA, err := res.resolveFriends(pa, a, topFriends)
	if err != nil {
		return nil, err
	}
	friendsB, err := res.resolveFriends(pb, b, topFriends)
	if err != nil {
		return nil, err
	}
	if len(friendsA) == 0 || len(friendsB) == 0 {
		return x, nil // no social context: fall back to zeros
	}
	// Average the friends' cross-pair similarity per missing dimension
	// (Eqn 18); friend pairs missing the dimension contribute zero, as the
	// paper prescribes.
	dim := len(x)
	sums := sc.sums[:0]
	for d := 0; d < dim; d++ {
		sums = append(sums, 0)
	}
	sc.sums = sums
	count := float64(len(friendsA) * len(friendsB))
	if err := accumFriendPairSums(sums, res, pa, friendsA, pb, friendsB); err != nil {
		return nil, err
	}
	for d := range x {
		if !pv.Mask[d] {
			x[d] = sums[d] / count
		}
	}
	return x, nil
}

// imputePair is the one-shot, allocating form of imputePairInto — the
// Impute implementation behind both Source halves (the LazyStore passes
// its attached table, the System nil).
func imputePair(src Source, tbl *ImputeTable, pa platform.ID, a int, pb platform.ID, b int,
	v Variant, topFriends int) (linalg.Vector, error) {
	var sc imputeScratch
	return sc.imputePairInto(nil, src, sourceResolver{src}, tbl, pa, a, pb, b, v, topFriends)
}

// checkPairRange validates a pair's local account ids against the
// platforms' account counts, with the same error both Source halves
// report.
func checkPairRange(pa platform.ID, a int, pb platform.ID, b int, na, nb int) error {
	if a < 0 || a >= na || b < 0 || b >= nb {
		return fmt.Errorf("core: pair (%d,%d) out of range (%s has %d, %s has %d)",
			a, b, pa, na, pb, nb)
	}
	return nil
}
