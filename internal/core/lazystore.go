package core

import (
	"fmt"
	"sync/atomic"

	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/platform"
	"hydra/internal/vision"
)

// LazySnapshot is the storage contract behind LazyStore: per-account
// views and friend slices handed out one account at a time, plus the
// counts and header-level strings that never need a section touch. It
// has three backings: pipeline.MappedBundle materializes entries from
// the file on first touch, a decoded pipeline.Bundle restores every view
// up front and indexes into the slices, and a System's dataset builds
// views per platform on first use.
//
// View and Friends must return stable results: repeated calls for the
// same account must be safe under concurrency and return equal values,
// though not always the same pointer — the mapped implementation keeps
// a bounded set of decoded views and decodes an evicted one again on its
// next touch. Nothing may depend on view identity; state derived from a
// view rides on it and is rebuilt with it.
type LazySnapshot interface {
	// Platforms lists the snapshotted platform ids in sorted order.
	Platforms() []platform.ID
	// NumAccounts returns a platform's account count, -1 if absent.
	NumAccounts(id platform.ID) int
	// View materializes one account view.
	View(id platform.ID, local int) (*features.AccountView, error)
	// Friends materializes one account's full persisted friend slice
	// (rank order, cut at the snapshot's friendsK).
	Friends(id platform.ID, local int) ([]graph.Friend, error)
	// Username returns an account's profile username without
	// materializing the view (false when out of range or absent).
	Username(id platform.ID, local int) (string, bool)
}

// Source is the declared type of serve.Engine.Sys and nothing else: the
// feature-store calls the serving engine makes through that field. Its
// one implementation is *LazyStore; it stays an interface only because
// the benchmark harness type-asserts Engine.Sys back to *LazyStore.
type Source interface {
	NumAccounts(id platform.ID) int
	Username(id platform.ID, local int) string
	CacheSize() int
	PairCacheStats() (hits, misses, declined uint64)
	WarmPairCache(fn func() error) error
	ImputeTable() *ImputeTable
	ImputeTableEnabled() bool
	SetImputeTableEnabled(on bool)
}

// LazyStore is the one feature store: every model trains, packs and
// serves through it. It answers RawPair, Impute and Friends from a
// LazySnapshot — a bundle's precomputed views and top-friends slices, or
// a System's live dataset — so a model scores bit-identically over the
// system it was trained on and over any bundle packed from it. Account
// state is pulled from the snapshot one account at a time, so the store
// itself is O(platform count) to build and adds nothing proportional to
// the snapshot's size: over a mapped bundle, entries materialize only
// when queries ask.
//
// It is immutable after construction apart from the mutex-guarded pair
// cache and the atomically swapped impute table, so it is safe for
// concurrent queries.
type LazyStore struct {
	pipe   *features.Pipeline
	snap   LazySnapshot
	plats  []platform.ID
	counts map[platform.ID]int
	// friendsK is the depth the snapshot's friend slices were cut at: the
	// top-friendsK prefix of the live graph's TopFriends ranking, which is
	// all HYDRA-M imputation (Eqn 18) ever reads at query time.
	friendsK int
	faces    *vision.Matcher
	// present marks, per restricted platform, which accounts' state this
	// snapshot actually carries (nil map / missing platform = all of it).
	// A sharded serving bundle restricts its B-side platforms to the
	// shard's slice plus its friend closure; queries touching anything
	// else fail here, loudly, instead of scoring a zeroed view.
	present map[platform.ID][]bool
	pairs   pairMemo[features.PairVector]
	// tbl is the optional pack-time Eqn-18 table (see imputetable.go) and
	// tblOff its runtime off-switch — the one copy Impute, every Model
	// scoring path and /healthz read. Neither ever changes a served bit:
	// a hit only skips the live friend walk.
	tbl    atomic.Pointer[ImputeTable]
	tblOff atomic.Bool
}

var _ Source = (*LazyStore)(nil)

// NewLazyStore assembles a store over a snapshot whose friend slices hold
// each account's top friendsK most-interacting friends in rank order
// (shorter when the account's degree is smaller).
func NewLazyStore(pipe *features.Pipeline, snap LazySnapshot, friendsK int, faces *vision.Matcher) (*LazyStore, error) {
	if pipe == nil {
		return nil, fmt.Errorf("core: NewLazyStore needs a pipeline")
	}
	if snap == nil {
		return nil, fmt.Errorf("core: NewLazyStore needs a snapshot")
	}
	plats := snap.Platforms()
	if len(plats) == 0 {
		return nil, fmt.Errorf("core: NewLazyStore needs at least one platform of views")
	}
	if friendsK <= 0 {
		return nil, fmt.Errorf("core: NewLazyStore needs a positive friendsK, got %d", friendsK)
	}
	if faces == nil {
		return nil, fmt.Errorf("core: NewLazyStore needs the face-matcher state")
	}
	counts := make(map[platform.ID]int, len(plats))
	for _, id := range plats {
		n := snap.NumAccounts(id)
		if n < 0 {
			return nil, fmt.Errorf("core: snapshot lists platform %s but has no accounts for it", id)
		}
		counts[id] = n
	}
	return &LazyStore{
		pipe:     pipe,
		snap:     snap,
		plats:    append([]platform.ID(nil), plats...),
		counts:   counts,
		friendsK: friendsK,
		faces:    faces,
	}, nil
}

// Restrict marks the store as a partial snapshot: for each listed
// platform, only the accounts whose flag is true have real state; every
// other account of that platform is a placeholder whose use is an error.
// Platforms not listed stay fully available. Called once at restore time
// (before any queries), so the field needs no locking.
func (st *LazyStore) Restrict(present map[platform.ID][]bool) { st.present = present }

// Platforms lists the snapshotted platform ids in sorted order.
func (st *LazyStore) Platforms() []platform.ID {
	return append([]platform.ID(nil), st.plats...)
}

// FriendsK returns the per-account friend-slice depth the snapshot was
// packed with (imputation can use any topFriends up to this).
func (st *LazyStore) FriendsK() int { return st.friendsK }

// Faces exposes the face matcher (blocking uses it).
func (st *LazyStore) Faces() *vision.Matcher { return st.faces }

// NumAccounts returns a platform's account count, -1 if the snapshot
// does not carry it — answered without materializing any view.
func (st *LazyStore) NumAccounts(id platform.ID) int {
	n, ok := st.counts[id]
	if !ok {
		return -1
	}
	return n
}

// numAccounts is NumAccounts with the unknown-platform error queries
// report.
func (st *LazyStore) numAccounts(id platform.ID) (int, error) {
	n := st.NumAccounts(id)
	if n < 0 {
		return 0, fmt.Errorf("core: platform %s not in snapshot (have %v)", id, st.Platforms())
	}
	return n, nil
}

// checkPresent rejects a query touching an account this partial
// snapshot does not carry (see Restrict).
func (st *LazyStore) checkPresent(id platform.ID, local int) error {
	p, ok := st.present[id]
	if !ok || (local >= 0 && local < len(p) && p[local]) {
		return nil
	}
	return fmt.Errorf("core: %s account %d is not packed in this shard — route it by the bundle's shard descriptor", id, local)
}

// Username answers from the snapshot's header state without
// materializing the view — the REPL's per-result lookup.
func (st *LazyStore) Username(id platform.ID, local int) string {
	name, _ := st.snap.Username(id, local)
	return name
}

// RawPair returns the (cached) unimputed pair vector between account a
// on platform pa and account b on platform pb, materializing exactly the
// two views it needs. The similarity computation runs outside the cache
// lock; when two goroutines race on an uncached pair both compute the
// same deterministic vector and one write wins. A capped cache stores a
// computed vector only on the pair's second miss (see LimitPairCache).
func (st *LazyStore) RawPair(pa platform.ID, a int, pb platform.ID, b int) (features.PairVector, error) {
	key := pairKey{pa, pb, a, b}
	if pv, ok := st.pairs.lookup(key); ok {
		return pv, nil
	}
	na, err := st.numAccounts(pa)
	if err != nil {
		return features.PairVector{}, err
	}
	nb, err := st.numAccounts(pb)
	if err != nil {
		return features.PairVector{}, err
	}
	if err := checkPairRange(pa, a, pb, b, na, nb); err != nil {
		return features.PairVector{}, err
	}
	if err := st.checkPresent(pa, a); err != nil {
		return features.PairVector{}, err
	}
	if err := st.checkPresent(pb, b); err != nil {
		return features.PairVector{}, err
	}
	va, err := st.snap.View(pa, a)
	if err != nil {
		return features.PairVector{}, err
	}
	vb, err := st.snap.View(pb, b)
	if err != nil {
		return features.PairVector{}, err
	}
	pv := st.pipe.Pair(va, vb)
	if st.pairs.admit(key) {
		st.pairs.store(key, pv)
	}
	return pv, nil
}

// Friends returns the top-k prefix of an account's persisted friend
// slice. The slices are stored in the live graph's rank order, so any
// prefix up to friendsK equals what TopFriends would have returned.
func (st *LazyStore) Friends(id platform.ID, local, k int) ([]graph.Friend, error) {
	n, err := st.numAccounts(id)
	if err != nil {
		return nil, err
	}
	if local < 0 || local >= n {
		return nil, fmt.Errorf("core: account %d out of range (%s snapshot has %d)", local, id, n)
	}
	if err := st.checkPresent(id, local); err != nil {
		return nil, err
	}
	if k > st.friendsK {
		return nil, fmt.Errorf("core: imputation wants top-%d friends but the snapshot stores top-%d — pack a new bundle with hydra-link -save-bundle from the training world", k, st.friendsK)
	}
	f, err := st.snap.Friends(id, local)
	if err != nil {
		return nil, err
	}
	if k < len(f) {
		f = f[:k]
	}
	return f, nil
}

// SetImputeTable attaches (or, with nil, detaches) the pack-time Eqn-18
// table every imputation through this store consults.
func (st *LazyStore) SetImputeTable(t *ImputeTable) { st.tbl.Store(t) }

// ImputeTable returns the attached table, nil without one.
func (st *LazyStore) ImputeTable() *ImputeTable { return st.tbl.Load() }

// SetImputeTableEnabled toggles the attached table at runtime — the hook
// the differential tests and the benchmark oracle compare table-backed
// against live imputation with. Output is bit-identical either way; only
// the work per missing-dimension candidate changes.
func (st *LazyStore) SetImputeTableEnabled(on bool) { st.tblOff.Store(!on) }

// ImputeTableEnabled reports whether a table is attached AND the runtime
// toggle leaves it on (the state /healthz publishes).
func (st *LazyStore) ImputeTableEnabled() bool { return st.servingTable() != nil }

// servingTable returns the table imputation should consult — nil when
// none is attached or SetImputeTableEnabled turned it off.
func (st *LazyStore) servingTable() *ImputeTable {
	if st.tblOff.Load() {
		return nil
	}
	return st.tbl.Load()
}

// LimitPairCache bounds the pair-vector cache to at most n entries,
// trimming immediately if it is already larger, and makes it admit a
// vector only on the pair's second miss: the first miss computes and
// returns the vector without storing it, and writes the pair's
// fingerprint into a table of n slots (8 bytes each, allocated by the
// first miss that needs them). n ≤ 0 restores the default: unbounded,
// every vector stored on first miss. One-shot batch runs touch each
// pair a bounded number of times and want everything cached, but a
// long-lived serving process answering arbitrary queries would
// otherwise grow the cache monotonically until OOM, and on a working set
// that does not fit would fill it with pairs it never reads again — the
// serve engine caps it at startup. Eviction is arbitrary-entry, and
// correctness never depends on cache contents.
func (st *LazyStore) LimitPairCache(n int) { st.pairs.limit(n) }

// WarmPairCache runs fn with the pair cache storing every vector it
// computes on first miss, as an uncapped cache would (the cap still
// holds) — the serving engine's Prewarm, which promises the queries after
// it a warm cache.
func (st *LazyStore) WarmPairCache(fn func() error) error {
	st.pairs.warming.Add(1)
	defer st.pairs.warming.Add(-1)
	return fn()
}

// CacheSize reports the number of cached pair vectors (diagnostics).
func (st *LazyStore) CacheSize() int { return st.pairs.size() }

// PairCacheStats reports the pair-cache counters since process start:
// lookups that hit and missed, and the misses whose vector a capped cache
// declined to store (imputation health for /metrics).
func (st *LazyStore) PairCacheStats() (hits, misses, declined uint64) { return st.pairs.stats() }
