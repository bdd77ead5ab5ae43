package pipeline

// Sharded bundles: the pack-time half of HYDRA's scatter-gather serving
// tier. SplitBundle cuts one serving bundle into N self-contained
// sub-bundles by consistent hashing of the B-side account id — the same
// candidate-space partition the per-A-side blocking.Index already
// encodes, promoted to the deployment unit. Each sub-bundle keeps:
//
//   - the model, configs, face matcher and A-side platform state
//     verbatim (replicated — every shard scores with the same model),
//   - the B-side views restricted to the shard's slice plus the friend
//     closure of that slice (HYDRA-M imputation of an owned pair reads
//     the views of the pair's top friends, so those must travel with the
//     owner even when the hash assigns them elsewhere),
//   - the B-side friend slices of owned accounts only,
//   - the index shards with every candidate row filtered to owned
//     B-side accounts — the disjoint union across sub-bundles is exactly
//     the unsplit index, so a router that merges per-shard top-k heaps
//     with the engine's (score desc, B asc) tie-break reproduces the
//     single-process answer bit for bit.
//
// Every sub-bundle is stamped with a ShardDesc (generation, shard
// index/count, hash seed, restricted platforms) so a router can verify a
// set of serves is coherent before fanning queries out, and a serve can
// refuse queries for accounts it does not own.

import (
	"fmt"
	"sort"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/platform"
)

// ShardDesc identifies one sub-bundle of a sharded split: which slice of
// the B-side candidate space it owns and which pack generation it came
// from. The descriptor is self-certifying — ownership is a pure function
// of (Seed, platform, account id, Count), so a router needs no side
// table to route a query or to verify that N serves form one coherent
// generation.
type ShardDesc struct {
	// Generation is the pack generation, strictly increasing across
	// repacks of one deployment. A hot swap installs a new generation;
	// mixed generations inside one scatter-gather response are a bug the
	// router guards against. Zero is reserved for "unsharded".
	Generation uint64 `json:"generation"`
	// Index and Count place this sub-bundle in the split: 0 ≤ Index < Count.
	Index int `json:"index"`
	Count int `json:"count"`
	// Seed keys the consistent hash. All sub-bundles of one split share
	// it; a router refuses to mix serves with different seeds.
	Seed uint64 `json:"seed"`
	// BSide lists the platforms whose accounts are partitioned (sorted,
	// deduplicated) — the B side of every serving pair. Platforms not
	// listed are replicated in full on every shard.
	BSide []platform.ID `json:"b_side"`
}

// Validate rejects descriptors that cannot describe a real split. It
// runs at bundle read AND write time, so a corrupted or hand-edited
// shard stamp fails loudly instead of silently mis-routing queries.
func (d *ShardDesc) Validate() error {
	if d == nil {
		return nil
	}
	if d.Count < 1 {
		return fmt.Errorf("pipeline: shard descriptor count %d < 1", d.Count)
	}
	if d.Index < 0 || d.Index >= d.Count {
		return fmt.Errorf("pipeline: shard index %d out of range [0,%d)", d.Index, d.Count)
	}
	if d.Generation == 0 {
		return fmt.Errorf("pipeline: sharded bundle needs a nonzero generation")
	}
	if len(d.BSide) == 0 {
		return fmt.Errorf("pipeline: shard descriptor restricts no platforms")
	}
	for i := 1; i < len(d.BSide); i++ {
		if d.BSide[i] <= d.BSide[i-1] {
			return fmt.Errorf("pipeline: shard descriptor B-side platforms not sorted/unique: %v", d.BSide)
		}
	}
	return nil
}

// Restricted reports whether the platform's accounts are partitioned
// across shards (as opposed to replicated on every shard).
func (d *ShardDesc) Restricted(id platform.ID) bool {
	for _, p := range d.BSide {
		if p == id {
			return true
		}
	}
	return false
}

// ShardOf returns the shard index owning account b of a restricted
// platform, and -1 for unrestricted platforms (every shard serves them).
func (d *ShardDesc) ShardOf(id platform.ID, b int) int {
	if !d.Restricted(id) {
		return -1
	}
	return int(shardHash(d.Seed, id, b) % uint64(d.Count))
}

// Owns reports whether this shard answers queries for account b of the
// platform — true for every account of an unrestricted platform.
func (d *ShardDesc) Owns(id platform.ID, b int) bool {
	s := d.ShardOf(id, b)
	return s == -1 || s == d.Index
}

// SameTopology reports whether two descriptors describe the same
// partition shape: count, seed and restricted platforms (generation and
// shard index free). A serve only hot-swaps between same-topology
// bundles with the same index — changing the split means restarting the
// tier, not swapping one box.
func (d *ShardDesc) SameTopology(o *ShardDesc) bool {
	if d == nil || o == nil {
		return d == nil && o == nil
	}
	if d.Count != o.Count || d.Seed != o.Seed || len(d.BSide) != len(o.BSide) {
		return false
	}
	for i := range d.BSide {
		if d.BSide[i] != o.BSide[i] {
			return false
		}
	}
	return true
}

// shardHash is the consistent hash behind the B-side partition: FNV-1a
// over the platform id and the fixed-width little-endian account id,
// with the split's seed folded into the offset basis. It is a pure
// function of its arguments — pack time, serve time and route time all
// compute the same owner with no shared state.
func shardHash(seed uint64, id platform.ID, b int) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset) ^ seed
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime
	}
	x := uint64(int64(b))
	for i := 0; i < 8; i++ {
		h ^= (x >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// SplitBundle cuts an unsharded bundle into count self-contained
// sub-bundles (see the package comment for what each keeps). generation
// stamps the split (nonzero, strictly increasing across repacks of one
// deployment); seed keys the consistent hash and must stay fixed across
// generations of one deployment, or a swap would silently re-home
// accounts between shards.
//
// Splitting refuses a platform that appears on both sides of the serving
// pairs: its accounts would need to be simultaneously replicated (as an
// A side) and partitioned (as a B side). count=1 is a valid split — one
// shard owning everything, stamped and routable like any other, which is
// how a single-box deployment gets generations and hot swap.
func SplitBundle(b *Bundle, count int, seed, generation uint64) ([]*Bundle, error) {
	if b.Shard != nil {
		return nil, fmt.Errorf("pipeline: bundle is already shard %d of %d — split the unsharded bundle", b.Shard.Index, b.Shard.Count)
	}
	if count < 1 {
		return nil, fmt.Errorf("pipeline: cannot split a bundle into %d shards", count)
	}
	if generation == 0 {
		return nil, fmt.Errorf("pipeline: a sharded bundle needs a nonzero generation")
	}
	if len(b.Pairs) == 0 {
		return nil, fmt.Errorf("pipeline: bundle has no serving pairs to shard")
	}
	aSide := make(map[platform.ID]bool, len(b.Pairs))
	bSet := make(map[platform.ID]bool, len(b.Pairs))
	for _, pp := range b.Pairs {
		aSide[pp[0]] = true
		bSet[pp[1]] = true
	}
	bSide := make([]platform.ID, 0, len(bSet))
	for id := range bSet {
		if aSide[id] {
			return nil, fmt.Errorf("pipeline: platform %s appears on both sides of the serving pairs — its accounts cannot be both replicated and partitioned", id)
		}
		bSide = append(bSide, id)
	}
	sort.Slice(bSide, func(i, j int) bool { return bSide[i] < bSide[j] })

	out := make([]*Bundle, count)
	friends := &heapSnapshot{friends: b.Friends}
	for i := range out {
		desc := &ShardDesc{Generation: generation, Index: i, Count: count, Seed: seed, BSide: bSide}
		present := friendClosure(desc, friends)
		sb := *b // shallow copy: model, pipeline, faces, pairs shared
		sb.Shard = desc
		sb.Views = make(map[platform.ID][]features.ViewParts, len(b.Views))
		sb.Friends = make(map[platform.ID][][]graph.Friend, len(b.Friends))
		for id, views := range b.Views {
			if !desc.Restricted(id) {
				// A-side (replicated): share the slices verbatim.
				sb.Views[id] = views
				sb.Friends[id] = b.Friends[id]
				continue
			}
			kept := present[id]
			vs := make([]features.ViewParts, len(views))
			fr := make([][]graph.Friend, len(views))
			for j := range views {
				if kept[j] {
					vs[j] = views[j]
				}
				if desc.ShardOf(id, j) == i {
					fr[j] = b.Friends[id][j]
				}
			}
			sb.Views[id] = vs
			sb.Friends[id] = fr
		}
		sb.Indexes = make([]blocking.IndexParts, 0, len(b.Indexes))
		for _, ix := range b.Indexes {
			sb.Indexes = append(sb.Indexes, ix.RestrictB(func(bb int) bool {
				return desc.Owns(ix.PB, bb)
			}))
		}
		if b.ImputeTable != nil {
			// The table is keyed by candidate pair, so it shards exactly
			// as the index rows do: keep an entry iff this shard owns its
			// B-side account. The sums themselves stay valid verbatim —
			// they depend only on the pair and the friend closure, which
			// travels with the owner.
			sb.ImputeTable = core.RestrictImputeTable(b.ImputeTable, desc.Owns)
		}
		out[i] = &sb
	}
	return out, nil
}

// friendClosure is the one shard-presence rule: for each platform the
// shard restricts, it marks the accounts whose views the sub-bundle
// carries — the accounts it owns plus every friend of an owned account
// (the Eqn-18 friend closure imputation reads). SplitBundle packs by it
// and newSnapshotStore recomputes it from the shipped friend slices, so
// no presence table travels on the wire. nil for an unsharded bundle:
// everything is present. Friend ids outside the view range — impossible
// in a well-formed bundle — are ignored here and caught by the presence
// check at query time.
func friendClosure(d *ShardDesc, snap core.LazySnapshot) map[platform.ID][]bool {
	if d == nil {
		return nil
	}
	present := make(map[platform.ID][]bool, len(d.BSide))
	for _, id := range d.BSide {
		n := snap.NumAccounts(id)
		if n < 0 {
			continue
		}
		p := make([]bool, n)
		for j := range p {
			if d.ShardOf(id, j) != d.Index {
				continue
			}
			p[j] = true
			fr, err := snap.Friends(id, j)
			if err != nil {
				continue
			}
			for _, f := range fr {
				if f.ID >= 0 && f.ID < n {
					p[f.ID] = true
				}
			}
		}
		present[id] = p
	}
	return present
}
