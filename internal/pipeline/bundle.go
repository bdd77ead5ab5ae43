package pipeline

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/vision"
)

// BundleVersion is the one bundle wire version this build reads and
// writes, and the bundle is the one wire format a trained model has.
// Format v1 was a JSON model artifact whose recipes rebuilt the system
// over its world file, and format v2 an all-JSON bundle; both are
// retired, and the reader refuses any JSON document with a pointer to
// hydra-link -save-bundle. Format v3 keeps a JSON header for the small
// structured state and carries the bulky numeric sections — account
// views, top-friends slices, index shards, support vectors — as
// length-prefixed binary sections (see bundlebin.go). Every other
// version is rejected outright at both ends of the wire — the bundle
// carries raw model coefficients and precomputed views, and a silent
// cross-version reinterpretation would serve wrong scores.
const BundleVersion = 3

// Bundle is a self-contained serving unit: everything `hydra-serve`
// needs to answer score/link/top-k/batch queries, with no world file and
// no feature retraining. It persists the query state of the fitted
// system itself, not the recipes that built it:
//
//   - the query-only pipeline parts (feature config, observation span,
//     learned attribute importance) that Pair evaluation needs,
//   - every platform's per-account views — embeddings plus the
//     per-modality fields Pipeline.Pair reads,
//   - the top-friends adjacency slices HYDRA-M imputation (Eqn 18)
//     consumes, cut at the model's TopFriends depth,
//   - the simulated face-matcher state,
//   - the trained model parts (kernel, support vectors, duals, bias),
//   - the per-A-side blocking.Index shards top-k queries score against.
//
// All floats are stored as raw IEEE-754 bits, so a bundle-backed engine
// is bit-identical to the fitted system it was packed from over the
// bundle's serving surface: every platform appearing in Pairs.
// Platforms outside Pairs (possible when the training world had more
// than the serving pairs) are deliberately not packed — bundle and
// system agree on every in-surface query and both reject out-of-surface
// platforms, though with different error text (the snapshot says "not
// in snapshot", the system reports a dataset miss).
//
// Bundle is the decoded, in-memory form: what packBundle assembles,
// SplitBundle and TiledBundle rewrite, and ReadBundle copy-decodes out of
// the reader OpenBundleMapped serves from. The wire layout lives in
// bundlebin.go, the reader in bundlemap.go.
type Bundle struct {
	Version int

	// Query-time feature state.
	Pipeline features.PipelineParts
	Views    map[platform.ID][]features.ViewParts
	Friends  map[platform.ID][][]graph.Friend
	// FriendsK is the per-account depth the Friends slices were cut at
	// (= the model's resolved TopFriends).
	FriendsK int
	Faces    vision.Matcher

	// Trained model.
	Model core.ModelParts

	// Prescreen is the optional certified approximate prescreen built
	// at pack time (see core.BuildPrescreen), so servers never pay the
	// build at cold start. nil — older bundles, non-RBF models — means
	// exact-only serving; either way the served bits are identical,
	// only top-k work varies.
	Prescreen *core.PrescreenParts

	// ImputeTable is the optional pack-time Eqn-18 table (see
	// core.BuildImputeTable): the precomputed friend-pair sums of every
	// index-shard candidate with missing dimensions, keyed at the
	// model's resolved TopFriends. nil — older bundles, HYDRA-Z models —
	// means live imputation; the served bits are identical either way,
	// only per-candidate work varies.
	ImputeTable *core.ImputeTableParts

	// Serving surface: the indexed platform pairs and the prebuilt
	// candidate indexes (one per pair, in Pairs order, deduplicated).
	// Each index carries the blocking rules it was filtered with, so
	// there is no separate top-level rules field to drift from them.
	Pairs   [][2]platform.ID
	Indexes []blocking.IndexParts

	// Shard stamps a sub-bundle of a sharded split (see SplitBundle):
	// which slice of the B-side candidate space it owns, under which hash
	// seed, and which pack generation it belongs to. nil means unsharded —
	// the bundle carries the whole candidate space.
	Shard *ShardDesc

	// Provenance: the training world's identity, recorded at pack time
	// for operability (a bundle never needs the world again).
	WorldPersons     int
	WorldFingerprint string
}

// Artifact is the pack recipe of a fitted system: the model parts from
// Fit and the serving pairs and blocking rules from Block. It lives in
// memory only and packs over the system that made it; a caller may
// adjust Rules (the index width, say) before packing.
type Artifact struct {
	Model core.ModelParts
	Pairs [][2]platform.ID
	Rules blocking.Rules

	fit *FitState
}

// Artifact snapshots the fitted pipeline prefix as a pack recipe.
func (f *FitState) Artifact() (*Artifact, error) {
	parts, err := f.Linker.Model().Parts()
	if err != nil {
		return nil, err
	}
	return &Artifact{Model: parts, Pairs: f.BlockState.Opts.Pairs, Rules: f.BlockState.Opts.Rules, fit: f}, nil
}

// Bundle packs the fitted pipeline prefix into a self-contained serving
// bundle with the recipe unchanged. workers sizes the pool of every pack
// pass — index build, prescreen fit and certificate, impute table (≤ 0 = all
// cores; identical bundle at any setting).
func (f *FitState) Bundle(workers int) (*Bundle, error) {
	art, err := f.Artifact()
	if err != nil {
		return nil, err
	}
	return BundleFromArtifact(art, f.DS, workers)
}

// BundleFromArtifact packs the artifact over the fitted system that made
// it. ds must be that system's dataset: the model's coefficients are
// meaningless over any other accounts.
func BundleFromArtifact(a *Artifact, ds *platform.Dataset, workers int) (*Bundle, error) {
	if a.fit == nil || ds != a.fit.DS {
		return nil, fmt.Errorf("pipeline: the artifact packs only over the dataset it was fitted on")
	}
	return packBundle(a, workers)
}

// packBundle snapshots the fitted system's query state for the
// artifact's serving surface.
func packBundle(a *Artifact, workers int) (*Bundle, error) {
	sys, ds := a.fit.Sys, a.fit.DS
	b := &Bundle{
		Version:  BundleVersion,
		Pipeline: sys.Pipe.Parts(),
		Views:    make(map[platform.ID][]features.ViewParts),
		Friends:  make(map[platform.ID][][]graph.Friend),
		FriendsK: a.Model.Cfg.ResolvedTopFriends(),
		Faces:    *sys.Faces(),
		Model:    a.Model,
		Pairs:    a.Pairs,

		WorldPersons:     ds.NumPersons(),
		WorldFingerprint: worldFingerprint(ds),
	}
	// The runtime-only Cfg.Workers knob is zeroed, as IndexParts zeroes
	// Rules.Workers, so the bytes do not depend on the training host.
	b.Model.Cfg.Workers = 0
	for _, id := range bundlePlatforms(a.Pairs) {
		views, err := sys.Views(id)
		if err != nil {
			return nil, err
		}
		plat, err := ds.Platform(id)
		if err != nil {
			return nil, err
		}
		parts := make([]features.ViewParts, len(views))
		friends := make([][]graph.Friend, len(views))
		for i, v := range views {
			parts[i] = features.SnapshotView(v)
			friends[i] = plat.Graph.TopFriends(i, b.FriendsK)
		}
		b.Views[id] = parts
		b.Friends[id] = friends
	}
	rules := a.Rules
	rules.Workers = workers
	seen := make(map[[2]platform.ID]bool, len(a.Pairs))
	for _, pp := range a.Pairs {
		if seen[pp] {
			continue
		}
		seen[pp] = true
		platA, err := ds.Platform(pp[0])
		if err != nil {
			return nil, err
		}
		platB, err := ds.Platform(pp[1])
		if err != nil {
			return nil, err
		}
		ix, err := blocking.BuildIndex(platA, platB, sys.Faces(), rules)
		if err != nil {
			return nil, err
		}
		b.Indexes = append(b.Indexes, ix.Parts())
	}
	if a.Model.KernelKind == core.KernelRBF {
		qs, err := prescreenQueries(sys, a, b, workers)
		if err != nil {
			return nil, err
		}
		ps, err := core.BuildPrescreen(a.Model, core.PrescreenOpts{Queries: qs, Workers: workers})
		if err != nil {
			return nil, err
		}
		b.Prescreen = ps
	}
	// The table covers the index pairs the prescreen just imputed through
	// the same store, so every friend-pair vector they computed is a
	// cache hit here. The bundle's views and friend slices are snapshots
	// of this system's, so a restored store would record the same sums.
	if wantsImputeTable(b) {
		tbl, err := imputeTableOver(sys.LazyStore, b, workers)
		if err != nil {
			return nil, err
		}
		b.ImputeTable = tbl
	}
	return b, nil
}

// BuildBundleImputeTable computes the pack-time Eqn-18 table over the
// bundle's current index shards — every candidate pair the indexes can
// present, imputed through the bundle's own restored Store so the
// recorded sums are exactly what a serving store would compute live.
// packBundle builds the same table through the store it packed from;
// this entry point serves tooling that holds only a bundle — the bench
// harness times it on the packed bundle. Returns nil for HYDRA-Z models
// (zero-filled imputation never reads friends) and models without
// support vectors; bit-identical output at any worker count.
func BuildBundleImputeTable(b *Bundle, workers int) (*core.ImputeTableParts, error) {
	if !wantsImputeTable(b) {
		return nil, nil
	}
	c := *b
	c.ImputeTable = nil // accumulate through the live path, never an older table
	st, err := c.Store()
	if err != nil {
		return nil, err
	}
	return imputeTableOver(st, b, workers)
}

// wantsImputeTable reports whether the bundle's model imputes from
// friends at all: HYDRA-M with support vectors.
func wantsImputeTable(b *Bundle) bool {
	return b.Model.Cfg.Variant == core.HydraM && len(b.Model.Xs) > 0
}

// imputeTableOver is the one table build: every candidate pair of the
// bundle's index shards, imputed through st, which must answer exactly
// as a store restored from the bundle would.
func imputeTableOver(st *core.LazyStore, b *Bundle, workers int) (*core.ImputeTableParts, error) {
	dim := len(b.Model.Xs[0])
	inputs := make([]core.ImputeTableInput, 0, len(b.Indexes))
	for _, ix := range b.Indexes {
		inputs = append(inputs, core.ImputeTableInput{PA: ix.PA, PB: ix.PB, Pairs: indexPairs(ix)})
	}
	return core.BuildImputeTable(st, b.FriendsK, dim, workers, inputs)
}

// prescreenQueries imputes every pair the bundle's top-k can prune —
// each (a, c.B) of each index row — exactly as the serving scorer will.
// core.BuildPrescreen fits over them and the training candidates, and
// certifies the margin over them alone: the two-tier top-k never prunes
// any other pair.
func prescreenQueries(sys *core.System, a *Artifact, b *Bundle, workers int) ([]linalg.Vector, error) {
	m, err := core.ModelFromParts(sys.LazyStore, a.Model)
	if err != nil {
		return nil, err
	}
	var qs []linalg.Vector
	for _, ix := range b.Indexes {
		rows, err := m.ImputedPairRows(ix.PA, ix.PB, indexPairs(ix), workers)
		if err != nil {
			return nil, err
		}
		qs = append(qs, rows...)
	}
	return qs, nil
}

// indexPairs lists every (a, c.B) of the index's rows, row by row.
func indexPairs(ix blocking.IndexParts) [][2]int {
	var pairs [][2]int
	for _, row := range ix.ByA {
		for _, c := range row {
			pairs = append(pairs, [2]int{c.A, c.B})
		}
	}
	return pairs
}

// bundlePlatforms lists every platform appearing on either side of the
// serving pairs, sorted and deduplicated.
func bundlePlatforms(pairs [][2]platform.ID) []platform.ID {
	set := make(map[platform.ID]bool, 2*len(pairs))
	for _, pp := range pairs {
		set[pp[0]] = true
		set[pp[1]] = true
	}
	out := make([]platform.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// worldFingerprint is a cheap content fingerprint of a dataset, recorded
// in the bundle as provenance: platform ids, account counts, and every
// account's (person, username) pair, in deterministic order. It is
// O(accounts) to compute, tells regenerated, reseeded or resized worlds
// apart, and does not depend on JSON formatting.
func worldFingerprint(ds *platform.Dataset) string {
	h := fnv.New64a()
	for _, id := range sortedPlatformIDs(ds.Platforms) {
		p := ds.Platforms[id]
		fmt.Fprintf(h, "%s:%d;", id, len(p.Accounts))
		for _, acc := range p.Accounts {
			fmt.Fprintf(h, "%d,%s|", acc.Person, acc.Profile.Username)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// heapSnapshot is the core.LazySnapshot of a decoded bundle: every view
// restored once up front, friend slices shared with the bundle, each
// accessor a map lookup and an index. The other snapshot is MappedBundle
// itself, which materializes entries from the file on first touch; a
// decoded bundle is the same entries, decoded by that reader all at once.
// Account counts come from the friend slices, which Store checks against
// the views, so SplitBundle can run the friend closure over a friends-only
// snapshot.
type heapSnapshot struct {
	plats   []platform.ID
	views   map[platform.ID][]*features.AccountView
	friends map[platform.ID][][]graph.Friend
}

func (s *heapSnapshot) Platforms() []platform.ID { return s.plats }

func (s *heapSnapshot) NumAccounts(id platform.ID) int {
	fr, ok := s.friends[id]
	if !ok {
		return -1
	}
	return len(fr)
}

func (s *heapSnapshot) View(id platform.ID, local int) (*features.AccountView, error) {
	vs := s.views[id]
	if local < 0 || local >= len(vs) {
		return nil, fmt.Errorf("pipeline: account %d out of range (%s bundle has %d)", local, id, len(vs))
	}
	return vs[local], nil
}

func (s *heapSnapshot) Friends(id platform.ID, local int) ([]graph.Friend, error) {
	fr := s.friends[id]
	if local < 0 || local >= len(fr) {
		return nil, fmt.Errorf("pipeline: account %d out of range (%s bundle has %d)", local, id, len(fr))
	}
	return fr[local], nil
}

func (s *heapSnapshot) Username(id platform.ID, local int) (string, bool) {
	vs := s.views[id]
	if local < 0 || local >= len(vs) {
		return "", false
	}
	return vs[local].Acc.Profile.Username, true
}

// Store restores the bundle's query state into a snapshot-backed
// core.LazyStore — the same store a System trains through — over an
// in-memory snapshot of the bundle's views and friend slices. It rejects
// a bundle whose friend slices are shallower than the packed model's
// imputation depth (only reachable through a corrupted or hand-edited
// bundle — packBundle cuts the slices at exactly that depth), so the
// mismatch fails at load time instead of on the first HYDRA-M query
// with missing dimensions.
func (b *Bundle) Store() (*core.LazyStore, error) {
	snap := &heapSnapshot{
		plats:   sortedPlatformIDs(b.Views),
		views:   make(map[platform.ID][]*features.AccountView, len(b.Views)),
		friends: b.Friends,
	}
	for id, parts := range b.Views {
		if fr, ok := b.Friends[id]; !ok {
			return nil, fmt.Errorf("pipeline: bundle has views but no friend slices for %s", id)
		} else if len(fr) != len(parts) {
			return nil, fmt.Errorf("pipeline: bundle has %d views but %d friend slices for %s", len(parts), len(fr), id)
		}
		vs := make([]*features.AccountView, len(parts))
		for i := range parts {
			vs[i] = features.RestoreView(parts[i], id, i)
		}
		snap.views[id] = vs
	}
	return newSnapshotStore(snap, b.Pipeline, b.FriendsK, b.Model.Cfg.ResolvedTopFriends(), b.Faces, b.Shard, b.ImputeTable)
}

// newSnapshotStore is the shared body of Bundle.Store and
// MappedBundle.Store: the friend-depth gate, the query pipeline, the
// lazy store over the snapshot, the shard restriction (the friend
// closure of shard, nothing for an unsharded bundle) and the pack-time
// impute table.
func newSnapshotStore(snap core.LazySnapshot, parts features.PipelineParts, friendsK, need int, faces vision.Matcher,
	shard *ShardDesc, table *core.ImputeTableParts) (*core.LazyStore, error) {

	if friendsK < need {
		return nil, fmt.Errorf("pipeline: bundle packs top-%d friends but its model imputes with top-%d — pack a new bundle with hydra-link -save-bundle from the training world", friendsK, need)
	}
	pipe, err := features.PipelineFromParts(parts)
	if err != nil {
		return nil, err
	}
	st, err := core.NewLazyStore(pipe, snap, friendsK, &faces)
	if err != nil {
		return nil, err
	}
	// A sub-bundle of a sharded split carries only its slice of the
	// B side (plus the friend closure); mark everything else absent so a
	// mis-routed query fails loudly instead of scoring a zeroed view.
	st.Restrict(friendClosure(shard, snap))
	if table != nil {
		tbl, err := core.ImputeTableFromParts(table)
		if err != nil {
			return nil, err
		}
		st.SetImputeTable(tbl)
	}
	return st, nil
}

// WriteBundle encodes the bundle in the v3 binary-section format. A
// bundle stamped with any other version is refused.
func WriteBundle(w io.Writer, b *Bundle) error {
	if err := b.Shard.Validate(); err != nil {
		return err
	}
	if b.Version != BundleVersion {
		return fmt.Errorf("pipeline: refusing to write bundle version %d (this build writes version %d)", b.Version, BundleVersion)
	}
	return writeBundleV3(w, b)
}

// SaveBundle writes the bundle to a file by writing a temp file next to
// path and renaming it over the target, never by rewriting path in
// place: a serving process holds path open and reads account entries
// from it on first touch, and an in-place rewrite would change the bytes
// under its old generation — or fail its reads on a shorter file. After
// the rename the old generation's open file keeps the old inode; the next
// open sees the new one. As before, one writer per path at a time.
func SaveBundle(path string, b *Bundle) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = WriteBundle(f, b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// ReadBundle decodes a v3 bundle and rejects everything else: version
// mismatches, bytes past the last announced section, and JSON documents
// — a retired v1 model artifact or v2 bundle — which fail here instead
// of serving from half-empty state. It parses with the reader
// OpenBundleMapped serves from, run over data, which reads the sections
// it decodes at open into fresh buffers and copy-decodes every entry: the
// bundle shares no memory with data.
func ReadBundle(data []byte) (*Bundle, error) {
	mb := &MappedBundle{f: bytes.NewReader(data), size: len(data)}
	if err := mb.open(); err != nil {
		return nil, err
	}
	return mb.bundle()
}

// LoadBundle reads a bundle from a file.
func LoadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadBundle(data)
}
