package pipeline

import (
	"fmt"

	"hydra/internal/blocking"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/platform"
)

// TiledBundle scales a trained base bundle to n accounts per platform
// for out-of-RAM serving benchmarks: account i reuses the feature
// numerics of base view i%nbase (shared slices — the in-RAM cost of the
// tiled bundle is O(base), while its wire form duplicates every view
// and grows linearly with n), friends come from a deterministic
// community layout, and each indexed pair gets a seeded candidate list
// of ~candsPerA B-side accounts per A-side account. The result is a
// valid unsharded bundle the serving stack loads through either path;
// the prescreen and impute table are dropped (both are keyed to the
// base world's candidate geometry).
//
// This is a load-shape generator, not a linkage benchmark: scores over
// tiled views are meaningless as accuracy numbers, but every byte and
// branch of the serving path — decode or lazy open, view materialization,
// index walks, Eqn-18 imputation over the friend slices — is exercised
// at the scaled size.
func TiledBundle(base *Bundle, n, candsPerA int, seed uint64) (*Bundle, error) {
	if base.Shard != nil {
		return nil, fmt.Errorf("pipeline: TiledBundle needs an unsharded base bundle")
	}
	if n <= 0 || candsPerA <= 0 {
		return nil, fmt.Errorf("pipeline: TiledBundle needs positive sizes, got n=%d candsPerA=%d", n, candsPerA)
	}
	if candsPerA > n {
		candsPerA = n
	}
	const community = 512 // friend edges stay inside blocks of this size
	if base.FriendsK >= community {
		return nil, fmt.Errorf("pipeline: TiledBundle community size %d cannot hold top-%d friends", community, base.FriendsK)
	}

	t := &Bundle{
		Version:          base.Version,
		Pipeline:         base.Pipeline,
		Views:            make(map[platform.ID][]features.ViewParts, len(base.Views)),
		Friends:          make(map[platform.ID][][]graph.Friend, len(base.Friends)),
		FriendsK:         base.FriendsK,
		Faces:            base.Faces,
		Model:            base.Model,
		Pairs:            base.Pairs,
		WorldPersons:     n,
		WorldFingerprint: fmt.Sprintf("tiled:%d:%d:%d", n, candsPerA, seed),
	}

	for pid, views := range base.Views {
		if len(views) == 0 {
			return nil, fmt.Errorf("pipeline: TiledBundle base has no views for %s", pid)
		}
		out := make([]features.ViewParts, n)
		for i := 0; i < n; i++ {
			v := views[i%len(views)]
			// Attrs and Unique ride in the bundle header (JSON); at 50k
			// accounts they would bloat the O(header) cold start for no
			// benchmark value. Usernames stay — the REPL prints them.
			v.Attrs = nil
			v.Unique = nil
			out[i] = v
		}
		t.Views[pid] = out
	}

	// Friends: block-local rings. Account i's friends are the next
	// FriendsK accounts of its community block with descending weights,
	// so Eqn-18 imputation walks real in-range slices everywhere.
	for pid := range base.Views {
		fr := make([][]graph.Friend, n)
		for i := 0; i < n; i++ {
			block := (i / community) * community
			size := community
			if block+size > n {
				size = n - block
			}
			k := base.FriendsK
			if k > size-1 {
				k = size - 1
			}
			fs := make([]graph.Friend, k)
			for tIdx := 0; tIdx < k; tIdx++ {
				fs[tIdx] = graph.Friend{
					ID:     block + (i-block+1+tIdx)%size,
					Weight: float64(base.FriendsK - tIdx + 1),
				}
			}
			fr[i] = fs
		}
		t.Friends[pid] = fr
	}

	// Indexes: per A-side account, a contiguous run of B-side ids
	// starting at a hashed offset, with hashed length jitter around
	// candsPerA so the fan-out distribution has a real tail.
	t.Indexes = make([]blocking.IndexParts, len(base.Indexes))
	for ixi, ix := range base.Indexes {
		byA := make([][]blocking.Candidate, n)
		for a := 0; a < n; a++ {
			h := mix64(seed, uint64(ixi), uint64(a))
			m := candsPerA/2 + int(h%uint64(candsPerA+1))
			if m > n {
				m = n
			}
			start := int(mix64(seed, uint64(ixi)+7, uint64(a)) % uint64(n))
			row := make([]blocking.Candidate, m)
			for j := 0; j < m; j++ {
				row[j] = blocking.Candidate{A: a, B: (start + j) % n}
			}
			byA[a] = row
		}
		t.Indexes[ixi] = blocking.IndexParts{PA: ix.PA, PB: ix.PB, Rules: ix.Rules, ByA: byA}
	}
	return t, nil
}

// mix64 hashes the parts splitmix64-style for TiledBundle's seeded
// layout decisions.
func mix64(parts ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, p := range parts {
		h ^= p + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
	}
	return h
}
