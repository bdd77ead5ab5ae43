package pipeline

// The one v3 parser. OpenBundleMapped reads a bundle without decoding
// it, for out-of-RAM serving; ReadBundle and LoadBundle run the same open
// over an in-memory copy and then copy-decode every entry into a Bundle
// (MappedBundle.bundle), so every consumer shares one set of refusals.
// Only the JSON header is parsed eagerly, and each
// length-prefixed binary section is exposed as a lazy view: account
// views, friend slices and index rows are located by a cheap skip-scan
// at open time (offsets only — no allocation proportional to payload)
// and materialized on first touch. Cold start is therefore
// O(header + offsets + the sections decoded at open) instead of
// O(bundle).
//
// Nothing is memory-mapped. The skip-scan reads the three account
// sections (views, friend slices, index rows) with ReadAt through one
// reusable chunk, and a first touch reads exactly its entry's bytes into
// pooled scratch and copy-decodes them. So their file pages stay in the
// page cache and never count toward the process's resident set, and a
// read that comes up short (a file rewritten in place, a closed bundle)
// is an error, not a fault. Every section is read through one type, the
// cursor at the end of this file.
//
// What stays resident is the decoded heap, and decoded views are the
// bulk of it (a view plus its derived state is ≈ 9 KB on the
// benchmark's world), so they alone are capped: at most
// maxResidentViews stay cached, and a second-chance (CLOCK) sweep drops
// the least recently touched once a first touch crosses the cap. Friend
// slices and index rows are small and stay cached for the life of the
// bundle.
//
// The header, model and prescreen sections are read into heap buffers
// once at open and decoded there. Each buffer is placed at its section's
// file offset mod 8, so a vector whose payload is 8-byte aligned in the
// file aliases its buffer instead of being copied, where the host byte
// order allows (see aliasFloat64s). The impute table, by far the largest
// of the sections decoded at open, is decoded through the scan's chunk
// instead: its vectors are copied a window at a time, and no buffer ever
// holds the whole section.
//
// Lifetime: Close closes the file, after which a first touch of an entry
// fails to read; callers (the serve engine) drain in-flight queries first
// — see serve.Engine.Retire.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/temporal"
)

// maxResidentViews caps the decoded views one bundle keeps. A
// 64-candidate top-k touches about 260 views (the candidates plus both
// sides' imputation friends), so the cap holds about four requests'
// working sets — ≈ 9 MB of decoded views — while a 50k-account bundle no
// longer keeps every view it ever decoded.
const maxResidentViews = 1024

// scanChunk is how many bytes of an account section or the impute table
// the open reads at a time, and so what it holds of them.
const scanChunk = 1 << 20

// MapOptions tunes OpenBundleMapped. It has no fields; callers pass
// MapOptions{}.
type MapOptions struct{}

// MappedStats reports what a lazily opened bundle has materialized so far.
type MappedStats struct {
	Bytes       int // file size
	AliasedVecs uint64
	CopiedVecs  uint64

	ResidentViews   int
	ResidentFriends int
	ResidentRows    int
	TotalViews      int
	TotalFriends    int
	TotalRows       int
}

// MappedBundle is a v3 bundle opened without decoding: header parsed,
// model sections decoded, account entries read on first touch. It implements
// core.LazySnapshot, so core.NewLazyStore can serve straight off it.
type MappedBundle struct {
	f      io.ReaderAt // the file, closed by Close; or ReadBundle's bytes
	size   int
	closed atomic.Bool

	header bundleHeaderV3
	plats  []platform.ID

	modelParts     core.ModelParts
	prescreenParts *core.PrescreenParts
	tableParts     *core.ImputeTableParts

	views   map[platform.ID]*mappedViews
	friends map[platform.ID]*mappedFriends
	indexes []*mappedIndex

	// viewSlots holds every platform's view cache in one array (each
	// mappedViews owns a window of it), so one CLOCK hand sweeps them
	// all. viewCap bounds the resident count (maxResidentViews; tests
	// lower it); sweepMu serializes sweeps and guards hand.
	viewSlots []viewSlot
	viewCap   int
	sweepMu   sync.Mutex
	hand      int

	aliased, copied                atomic.Uint64
	resViews, resFriends, resRows  atomic.Int64
	totalViews, totalFriends, rows int
}

// mappedViews is one platform's slice of the view section: the header
// metas, where each account's entry lies in the file (entry i is bytes
// off[i] to off[i+1]), and its window of the bundle's view slots.
type mappedViews struct {
	metas []viewMetaV3
	off   []int
	slots []viewSlot
}

// viewSlot caches one account's decoded view while it is resident. ref
// is the CLOCK reference bit: set by every touch, cleared by a passing
// sweep, which drops the view if the bit is still clear next time round.
type viewSlot struct {
	v   atomic.Pointer[features.AccountView]
	ref atomic.Bool
}

// mappedFriends and mappedIndex locate their entries like mappedViews:
// entry i is file bytes off[i] to off[i+1].
type mappedFriends struct {
	off   []int
	cache []atomic.Pointer[[]graph.Friend]
}

type mappedIndex struct {
	mb     *MappedBundle
	meta   indexMetaV3
	rowOff []int
	rowLen []int
	cache  []atomic.Pointer[[]blocking.Candidate]
}

// OpenBundleMapped opens a v3 bundle lazily. The returned bundle holds
// the file open until Close, and reads account entries from it on first
// touch, so a served bundle must only ever be replaced by rename (as
// SaveBundle does), never rewritten in place.
func OpenBundleMapped(path string, _ MapOptions) (*MappedBundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size > math.MaxInt {
		f.Close()
		return nil, fmt.Errorf("pipeline: bundle %s is %d bytes, more than this build can address", path, size)
	}
	mb := &MappedBundle{f: f, size: int(size), viewCap: maxResidentViews}
	if err := mb.open(); err != nil {
		mb.Close()
		return nil, err
	}
	return mb, nil
}

// open parses the header, bounds-checks every section against the file
// size, eagerly decodes the model, prescreen and impute-table sections
// (model and prescreen vectors alias their section's buffer where
// possible) and skip-scans the account sections (views, friends, indexes)
// into per-entry offset tables. It reads only through mb.f and mb.size,
// so it opens a file (OpenBundleMapped) and a byte slice (ReadBundle)
// alike.
func (mb *MappedBundle) open() error {
	head := make([]byte, min(mb.size, len(bundleMagic)))
	if err := readFull(mb.f, head, 0); err != nil {
		return fmt.Errorf("pipeline: read bundle magic: %w", err)
	}
	if err := checkMagic(head); err != nil {
		return err
	}
	off := len(bundleMagic)
	// frame reads the next block's length prefix and checks the block
	// against the file, returning where the block's bytes lie.
	frame := func(what string) (lo, n int, err error) {
		if mb.size-off < 8 {
			return 0, 0, fmt.Errorf("pipeline: read v3 %s length: file truncated at byte %d", what, off)
		}
		var p [8]byte
		if err := readFull(mb.f, p[:], off); err != nil {
			return 0, 0, fmt.Errorf("pipeline: read v3 %s length: %w", what, err)
		}
		u := binary.LittleEndian.Uint64(p[:])
		off += 8
		const maxSection = 1 << 33
		if u > maxSection {
			return 0, 0, fmt.Errorf("pipeline: v3 %s claims %d bytes — corrupt bundle", what, u)
		}
		if int(u) > mb.size-off {
			return 0, 0, fmt.Errorf("pipeline: v3 %s wants %d bytes, file has %d left — truncated bundle", what, u, mb.size-off)
		}
		lo, n = off, int(u)
		off += n
		return lo, n, nil
	}
	// whole reads the next block into a fresh buffer placed at its file
	// offset mod 8, so a payload aligned in the file is aligned in the
	// buffer and its vector may alias it.
	whole := func(what string) (*cursor, error) {
		lo, n, err := frame(what)
		if err != nil {
			return nil, err
		}
		pad := lo % 8
		buf := make([]byte, pad+n)[pad:]
		if err := readFull(mb.f, buf, lo); err != nil {
			return nil, fmt.Errorf("pipeline: read v3 %s: %w", what, err)
		}
		return &cursor{lo: lo, hi: lo + n, off: lo, base: lo, win: buf, mb: mb, alias: true}, nil
	}
	// chunked only locates the next block; its cursor reads it later
	// through the one chunk.
	chunk := make([]byte, 0, min(scanChunk, mb.size))
	chunked := func(what string) (*cursor, error) {
		lo, n, err := frame(what)
		if err != nil {
			return nil, err
		}
		return &cursor{f: mb.f, lo: lo, hi: lo + n, off: lo, base: lo, win: chunk, mb: mb}, nil
	}

	header, err := whole("header")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(header.win, &mb.header); err != nil {
		return fmt.Errorf("pipeline: decode v3 header: %w", err)
	}
	if mb.header.Version != BundleVersion {
		return fmt.Errorf("pipeline: binary bundle version %d, this build reads version %d", mb.header.Version, BundleVersion)
	}
	if err := mb.header.Shard.Validate(); err != nil {
		return err
	}

	model, err := whole("model section")
	if err != nil {
		return err
	}
	var secs [3]*cursor
	for i, what := range []string{"view section", "friend section", "index section"} {
		if secs[i], err = chunked(what); err != nil {
			return err
		}
	}
	var prescreen, table *cursor
	if mb.header.Prescreen != nil {
		if prescreen, err = whole("prescreen section"); err != nil {
			return err
		}
	}
	if mb.header.ImputeTable != nil {
		if table, err = chunked("impute-table section"); err != nil {
			return err
		}
	}
	if off != mb.size {
		return fmt.Errorf("pipeline: v3 bundle has %d trailing bytes — corrupt bundle", mb.size-off)
	}

	if err := mb.decodeModel(model); err != nil {
		return err
	}
	if err := mb.decodePrescreen(prescreen); err != nil {
		return err
	}
	if err := mb.decodeImputeTable(table); err != nil {
		return err
	}
	if err := mb.scanViews(secs[0]); err != nil {
		return err
	}
	if err := mb.scanFriends(secs[1]); err != nil {
		return err
	}
	return mb.scanIndexes(secs[2])
}

// readFull reads exactly len(p) bytes at file offset off; coming up short
// is an error.
func readFull(f io.ReaderAt, p []byte, off int) error {
	n, err := f.ReadAt(p, int64(off))
	if n == len(p) {
		return nil
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (mb *MappedBundle) decodeModel(r *cursor) error {
	mb.modelParts = core.ModelParts{
		Cfg:         mb.header.Model.Cfg,
		KernelKind:  mb.header.Model.KernelKind,
		KernelSigma: mb.header.Model.KernelSigma,
		Bias:        mb.header.Model.Bias,
		Diag:        mb.header.Model.Diag,
	}
	mb.modelParts.Xs = r.vecs()
	mb.modelParts.Alpha = r.vec()
	return r.finish("model section")
}

func (mb *MappedBundle) decodePrescreen(r *cursor) error {
	hp := mb.header.Prescreen
	if hp == nil {
		return nil
	}
	w, b, c, v := r.vec(), r.vec(), r.vec(), r.vec()
	if err := r.finish("prescreen section"); err != nil {
		return err
	}
	var err error
	mb.prescreenParts, err = hp.parts(w, b, c, v)
	return err
}

func (mb *MappedBundle) decodeImputeTable(r *cursor) error {
	ht := mb.header.ImputeTable
	if ht == nil {
		return nil
	}
	t := &core.ImputeTableParts{K: ht.K, Dim: ht.Dim}
	for _, pm := range ht.Pairs {
		pp := core.ImputeTablePairParts{
			PA: pm.PA, PB: pm.PB,
			A: r.i32s(), B: r.i32s(),
			Counts: r.vec(), Sums: r.vec(),
		}
		if r.err == nil && len(pp.A) != pm.Entries {
			return fmt.Errorf("pipeline: v3 impute-table section has %d entries for %s/%s, header lists %d",
				len(pp.A), pm.PA, pm.PB, pm.Entries)
		}
		t.Pairs = append(t.Pairs, pp)
	}
	if err := r.finish("impute-table section"); err != nil {
		return err
	}
	mb.tableParts = t
	return t.Validate()
}

func (mb *MappedBundle) scanViews(s *cursor) error {
	mb.plats = sortedPlatformIDs(mb.header.Views)
	mb.views = make(map[platform.ID]*mappedViews, len(mb.plats))
	nslots := 0
	for _, metas := range mb.header.Views {
		nslots += len(metas)
	}
	mb.viewSlots = make([]viewSlot, nslots)
	for _, id := range mb.plats {
		metas := mb.header.Views[id]
		nv := int(s.u32())
		if s.err != nil {
			break
		}
		if nv != len(metas) {
			return fmt.Errorf("pipeline: v3 view section has %d accounts for %s, header lists %d", nv, id, len(metas))
		}
		mv := &mappedViews{
			metas: metas,
			off:   make([]int, nv+1),
			slots: mb.viewSlots[mb.totalViews : mb.totalViews+nv],
		}
		for i := 0; i < nv && s.err == nil; i++ {
			mv.off[i] = s.off
			s.skipSlice(32) // events
			s.skipSlice(8)  // post times
			s.skipVecs()    // topic dists
			s.skipVecs()    // genre dists
			s.skipVecs()    // sentiment dists
			s.skipSlice(8)  // embedding
		}
		mv.off[nv] = s.off
		mb.views[id] = mv
		mb.totalViews += nv
	}
	return s.finish("view section")
}

func (mb *MappedBundle) scanFriends(s *cursor) error {
	mb.friends = make(map[platform.ID]*mappedFriends, len(mb.plats))
	for _, id := range mb.plats {
		nf := int(s.u32())
		if s.err != nil {
			break
		}
		if nv := len(mb.views[id].metas); nf != nv {
			return fmt.Errorf("pipeline: v3 friend section has %d accounts for %s, view section has %d", nf, id, nv)
		}
		mf := &mappedFriends{
			off:   make([]int, nf+1),
			cache: make([]atomic.Pointer[[]graph.Friend], nf),
		}
		for i := 0; i < nf && s.err == nil; i++ {
			mf.off[i] = s.off
			s.skipSlice(16)
		}
		mf.off[nf] = s.off
		mb.friends[id] = mf
		mb.totalFriends += nf
	}
	return s.finish("friend section")
}

func (mb *MappedBundle) scanIndexes(s *cursor) error {
	for _, meta := range mb.header.Indexes {
		mi := &mappedIndex{mb: mb, meta: meta}
		nrows, ok := s.sliceLen()
		if ok && s.err == nil {
			mi.rowOff = make([]int, nrows+1)
			mi.rowLen = make([]int, nrows)
			mi.cache = make([]atomic.Pointer[[]blocking.Candidate], nrows)
			for i := 0; i < nrows && s.err == nil; i++ {
				mi.rowOff[i] = s.off
				mi.rowLen[i] = s.skipSlice(17)
			}
			mi.rowOff[nrows] = s.off
			mb.rows += nrows
		}
		mb.indexes = append(mb.indexes, mi)
	}
	return s.finish("index section")
}

// readEntry reads one account entry, file bytes [lo, hi), into pooled
// scratch and hands it to decode, which must copy everything it keeps:
// the scratch goes back to the pool on return. A short read — the file
// truncated or rewritten in place, or the bundle closed — is an error, and
// so is an entry the decode does not consume exactly.
func (mb *MappedBundle) readEntry(lo, hi int, decode func(r *cursor)) error {
	p := entryScratch.Get().(*[]byte)
	defer entryScratch.Put(p)
	if cap(*p) < hi-lo {
		*p = make([]byte, hi-lo)
	}
	buf := (*p)[:hi-lo]
	if err := readFull(mb.f, buf, lo); err != nil {
		return err
	}
	r := &cursor{lo: lo, hi: hi, off: lo, base: lo, win: buf, mb: mb}
	decode(r)
	if r.err == nil && r.off != hi {
		return fmt.Errorf("entry has %d trailing bytes", hi-r.off)
	}
	return r.err
}

// entryScratch pools the buffers readEntry reads into.
var entryScratch = sync.Pool{New: func() any { return new([]byte) }}

// View materializes (and caches, while resident) one account view.
// Concurrent first touches race benignly: decode is deterministic, and
// the CAS publishes one pointer. An evicted view is only dropped —
// callers still holding it keep using it — and the next touch decodes
// the same bits again, so repeated calls return equal views, not always
// the same pointer.
func (mb *MappedBundle) View(id platform.ID, local int) (*features.AccountView, error) {
	mv := mb.views[id]
	if mv == nil {
		return nil, fmt.Errorf("pipeline: platform %s not in mapped bundle", id)
	}
	if local < 0 || local >= len(mv.metas) {
		return nil, fmt.Errorf("pipeline: account %d out of range (%s mapped bundle has %d)", local, id, len(mv.metas))
	}
	s := &mv.slots[local]
	if v := s.v.Load(); v != nil {
		if !s.ref.Load() {
			s.ref.Store(true)
		}
		return v, nil
	}
	parts, err := mb.viewParts(id, local)
	if err != nil {
		return nil, err
	}
	v := features.RestoreView(parts, id, local)
	// The bit goes up before the pointer is published, so a sweep never
	// finds a fresh view unreferenced.
	s.ref.Store(true)
	if !s.v.CompareAndSwap(nil, v) {
		if w := s.v.Load(); w != nil {
			v = w
		}
		return v, nil
	}
	if mb.resViews.Add(1) > int64(mb.viewCap) {
		mb.evictViews()
	}
	return v, nil
}

// viewParts reads and copy-decodes one account's view entry: the one
// view decode, shared by View and bundle. local must be in range.
func (mb *MappedBundle) viewParts(id platform.ID, local int) (features.ViewParts, error) {
	mv := mb.views[id]
	meta := &mv.metas[local]
	var parts features.ViewParts
	err := mb.readEntry(mv.off[local], mv.off[local+1], func(r *cursor) {
		parts = features.ViewParts{
			Username: meta.Username, Attrs: meta.Attrs, AvatarID: meta.AvatarID, Unique: meta.Unique,
			Events: r.events(), PostTimes: r.times(),
			TopicDists: r.vecs(), GenreDists: r.vecs(), SentDists: r.vecs(),
			Embedding: r.vec(),
		}
	})
	if err != nil {
		return features.ViewParts{}, fmt.Errorf("pipeline: decode v3 view %s/%d: %w", id, local, err)
	}
	return parts, nil
}

// sweepBatch is how many views a sweep evicts, an eighth of the cap, and
// so how many first touches apart sweeps run.
func (mb *MappedBundle) sweepBatch() int64 { return int64(max(mb.viewCap/8, 1)) }

// evictViews runs when a first touch has pushed the resident count over
// the cap: it sweeps down to cap − sweepBatch, so the next sweep is a
// batch of first touches away. Goroutines that crossed the cap while
// another was sweeping wait for it and find nothing left to do.
func (mb *MappedBundle) evictViews() {
	mb.sweepMu.Lock()
	defer mb.sweepMu.Unlock()
	if mb.resViews.Load() <= int64(mb.viewCap) {
		return
	}
	target := int64(mb.viewCap) - mb.sweepBatch()
	for mb.resViews.Load() > target {
		s := &mb.viewSlots[mb.hand]
		if mb.hand++; mb.hand == len(mb.viewSlots) {
			mb.hand = 0
		}
		v := s.v.Load()
		if v == nil {
			continue
		}
		if s.ref.Load() {
			s.ref.Store(false) // second chance
			continue
		}
		if s.v.CompareAndSwap(v, nil) {
			mb.resViews.Add(-1)
		}
	}
}

// Friends materializes (and caches) one account's top-friends slice.
func (mb *MappedBundle) Friends(id platform.ID, local int) ([]graph.Friend, error) {
	mf := mb.friends[id]
	if mf == nil {
		return nil, fmt.Errorf("pipeline: platform %s not in mapped bundle", id)
	}
	if local < 0 || local >= len(mf.cache) {
		return nil, fmt.Errorf("pipeline: account %d out of range (%s mapped bundle has %d)", local, id, len(mf.cache))
	}
	if p := mf.cache[local].Load(); p != nil {
		return *p, nil
	}
	var fr []graph.Friend
	if err := mb.readEntry(mf.off[local], mf.off[local+1], func(r *cursor) { fr = r.friends() }); err != nil {
		return nil, fmt.Errorf("pipeline: decode v3 friends %s/%d: %w", id, local, err)
	}
	p := &fr
	if mf.cache[local].CompareAndSwap(nil, p) {
		mb.resFriends.Add(1)
	} else {
		p = mf.cache[local].Load()
	}
	return *p, nil
}

// Username answers from the header metas alone — no section touch.
func (mb *MappedBundle) Username(id platform.ID, local int) (string, bool) {
	mv := mb.views[id]
	if mv == nil || local < 0 || local >= len(mv.metas) {
		return "", false
	}
	return mv.metas[local].Username, true
}

// Platforms lists the bundle's platforms in sorted order. The returned
// slice is shared — callers must not modify it.
func (mb *MappedBundle) Platforms() []platform.ID { return mb.plats }

// NumAccounts returns the platform's account count, or -1 if the
// platform is not in the bundle.
func (mb *MappedBundle) NumAccounts(id platform.ID) int {
	mv := mb.views[id]
	if mv == nil {
		return -1
	}
	return len(mv.metas)
}

func (mi *mappedIndex) fetch(a int) ([]blocking.Candidate, error) {
	if p := mi.cache[a].Load(); p != nil {
		return *p, nil
	}
	var row []blocking.Candidate
	if err := mi.mb.readEntry(mi.rowOff[a], mi.rowOff[a+1], func(r *cursor) { row = r.candidates() }); err != nil {
		return nil, fmt.Errorf("pipeline: decode v3 index row %s/%d: %w", mi.meta.PA, a, err)
	}
	p := &row
	if mi.cache[a].CompareAndSwap(nil, p) {
		mi.mb.resRows.Add(1)
	} else {
		p = mi.cache[a].Load()
	}
	return *p, nil
}

// LazyIndexes builds one lazily-materializing blocking.Index per packed
// index. Row caches are shared across calls.
func (mb *MappedBundle) LazyIndexes() ([]*blocking.Index, error) {
	out := make([]*blocking.Index, 0, len(mb.indexes))
	for _, mi := range mb.indexes {
		ix, err := blocking.LazyIndex(mi.meta.PA, mi.meta.PB, mi.meta.Rules, mi.rowLen, mi.fetch)
		if err != nil {
			return nil, err
		}
		out = append(out, ix)
	}
	return out, nil
}

// Store restores the mapped bundle into a core.LazyStore served straight
// off the file — the same store, checks and shard restriction as
// Bundle.Store, with entries materialized on first touch.
func (mb *MappedBundle) Store() (*core.LazyStore, error) {
	return newSnapshotStore(mb, mb.header.Pipeline, mb.header.FriendsK, mb.modelParts.Cfg.ResolvedTopFriends(), mb.header.Faces, mb.header.Shard, mb.tableParts)
}

// bundle copy-decodes the whole bundle: the header, the sections decoded
// at open, and every view, friend slice and index row through the entry
// decodes the lazy accessors use (views without their cache: a Bundle
// holds parts, not restored views). It is ReadBundle's second half. Open
// read every section into fresh buffers, so the result shares no bytes
// with the source.
func (mb *MappedBundle) bundle() (*Bundle, error) {
	h := &mb.header
	b := &Bundle{
		Version:          h.Version,
		Pipeline:         h.Pipeline,
		Views:            make(map[platform.ID][]features.ViewParts, len(mb.plats)),
		Friends:          make(map[platform.ID][][]graph.Friend, len(mb.plats)),
		FriendsK:         h.FriendsK,
		Faces:            h.Faces,
		Model:            mb.modelParts,
		Prescreen:        mb.prescreenParts,
		ImputeTable:      mb.tableParts,
		Pairs:            h.Pairs,
		Shard:            h.Shard,
		WorldPersons:     h.WorldPersons,
		WorldFingerprint: h.WorldFingerprint,
	}
	for _, id := range mb.plats {
		vs := make([]features.ViewParts, mb.NumAccounts(id))
		frs := make([][]graph.Friend, len(vs))
		for i := range vs {
			var err error
			if vs[i], err = mb.viewParts(id, i); err != nil {
				return nil, err
			}
			if frs[i], err = mb.Friends(id, i); err != nil {
				return nil, err
			}
		}
		b.Views[id], b.Friends[id] = vs, frs
	}
	for _, mi := range mb.indexes {
		var byA [][]blocking.Candidate
		if mi.rowOff != nil { // nil: the section stored an absent row list
			byA = make([][]blocking.Candidate, len(mi.rowLen))
		}
		for a := range byA {
			var err error
			if byA[a], err = mi.fetch(a); err != nil {
				return nil, err
			}
		}
		b.Indexes = append(b.Indexes, blocking.IndexParts{PA: mi.meta.PA, PB: mi.meta.PB, Rules: mi.meta.Rules, ByA: byA})
	}
	return b, nil
}

// ModelParts returns the model parts (slices may alias the model
// section's buffer).
func (mb *MappedBundle) ModelParts() core.ModelParts { return mb.modelParts }

// Prescreen returns the packed prescreen parts, nil when absent.
func (mb *MappedBundle) Prescreen() *core.PrescreenParts { return mb.prescreenParts }

// Shard returns the shard descriptor, nil when unsharded.
func (mb *MappedBundle) Shard() *ShardDesc { return mb.header.Shard }

// Pairs returns the bundle's serving platform pairs.
func (mb *MappedBundle) Pairs() [][2]platform.ID { return mb.header.Pairs }

// Stats snapshots what has been materialized so far.
func (mb *MappedBundle) Stats() MappedStats {
	return MappedStats{
		Bytes:           mb.size,
		AliasedVecs:     mb.aliased.Load(),
		CopiedVecs:      mb.copied.Load(),
		ResidentViews:   int(mb.resViews.Load()),
		ResidentFriends: int(mb.resFriends.Load()),
		ResidentRows:    int(mb.resRows.Load()),
		TotalViews:      mb.totalViews,
		TotalFriends:    mb.totalFriends,
		TotalRows:       mb.rows,
	}
}

// Close closes the file. An entry first touched afterwards fails to read,
// so the engine serving off the bundle must be out of use first; the
// serve tier guarantees that by draining in-flight requests before
// closing. Idempotent.
func (mb *MappedBundle) Close() error {
	if mb.closed.Swap(true) {
		return nil
	}
	if c, ok := mb.f.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// cursor reads one section, file bytes [lo, hi), through a window onto
// the file: win holds file bytes [base, base+len(win)), and off is the
// file offset of the next byte. Every bound is checked against the
// section, not the window, so a corrupt length fails the same way
// whatever the window holds, and error texts count bytes from lo.
//
// A whole window holds the entire section — one decoded at open, one
// account entry, or a section of the tests' reference decode — and is
// never refilled. A chunk window is the shared scan chunk, read from f
// at the cursor whenever the cursor passes its end, so the section is
// never held whole; chunk cursors share it one at a time.
//
// The first error sticks; readers return zero values after it, so decode
// loops stay simple and the caller checks once, at finish.
type cursor struct {
	f      io.ReaderAt // refills a chunk window; nil for a whole one
	lo, hi int
	off    int
	win    []byte
	base   int
	err    error

	mb    *MappedBundle // counts the vectors vec and vecs decode
	alias bool          // vectors may alias the window: a section the bundle keeps
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// fits reports whether n more bytes lie inside the section, failing the
// cursor when they do not.
func (c *cursor) fits(n int) bool {
	if c.err != nil {
		return false
	}
	if n > c.hi-c.off {
		c.fail(fmt.Errorf("section truncated at byte %d (want %d more)", c.off-c.lo, n))
		return false
	}
	return true
}

// fill makes the next n bytes of the section readable in the window,
// moving a chunk window to start at the cursor when they are not all in
// it; n must not exceed the chunk. A whole window always holds them.
func (c *cursor) fill(n int) bool {
	if c.off+n <= c.base+len(c.win) {
		return true
	}
	c.base, c.win = c.off, c.win[:min(cap(c.win), c.hi-c.off)]
	if err := readFull(c.f, c.win, c.base); err != nil {
		c.fail(err)
		return false
	}
	return true
}

func (c *cursor) take(n int) []byte {
	if !c.fits(n) || !c.fill(n) {
		return nil
	}
	p := c.win[c.off-c.base:][:n]
	c.off += n
	return p
}

func (c *cursor) skip(n int) {
	if c.fits(n) {
		c.off += n
	}
}

func (c *cursor) u8() uint8 {
	p := c.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (c *cursor) u32() uint32 {
	p := c.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (c *cursor) u64() uint64 {
	p := c.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (c *cursor) i64() int64   { return int64(c.u64()) }
func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// sliceLen reads a presence byte and length; ok is false for nil. Each
// encoded element of every slice type is at least 1 byte, so a length
// beyond the section's remaining bytes is corruption, refused before any
// make() can balloon. A prefix wholly inside the window, as nearly all
// are, is read in place: the skip-scan reads one for every vector of
// every view.
func (c *cursor) sliceLen() (n int, ok bool) {
	if i := c.off - c.base; c.err == nil && i+5 <= len(c.win) {
		if c.win[i] == 0 {
			c.off++
			return 0, false
		}
		n = int(binary.LittleEndian.Uint32(c.win[i+1:]))
		c.off += 5
	} else {
		if c.u8() == 0 {
			return 0, false
		}
		n = int(c.u32())
	}
	if c.err == nil && n > c.hi-c.off {
		c.fail(fmt.Errorf("slice of %d elements at byte %d exceeds section size %d", n, c.off-c.lo, c.hi-c.lo))
		return 0, false
	}
	return n, true
}

// skipSlice advances past one presence-prefixed slice of fixed-width
// elements, returning its element count.
func (c *cursor) skipSlice(elemSize int) int {
	n, ok := c.sliceLen()
	if !ok || c.err != nil {
		return 0
	}
	c.skip(elemSize * n)
	return n
}

func (c *cursor) skipVecs() {
	n, ok := c.sliceLen()
	if !ok || c.err != nil {
		return
	}
	for i := 0; i < n; i++ {
		c.skipSlice(8)
	}
}

// vec decodes one vector. On a window the bundle keeps it aliases the
// payload in place where the host byte order and alignment allow;
// otherwise it copies, a window at a time, so a vector longer than the
// chunk needs no buffer of its own.
func (c *cursor) vec() linalg.Vector {
	n, ok := c.sliceLen()
	if !ok || !c.fits(8*n) {
		return nil
	}
	if c.alias {
		if v, ok := aliasFloat64s(c.win[c.off-c.base:], n); ok {
			c.off += 8 * n
			c.mb.aliased.Add(1)
			return v
		}
	}
	c.mb.copied.Add(1)
	v := make(linalg.Vector, n)
	c.floats(v)
	return v
}

// floats copy-decodes the next len(v) floats into v, one window at a
// time; the caller has checked that they lie in the section.
func (c *cursor) floats(v []float64) {
	for len(v) > 0 && c.fill(8) {
		p := c.win[c.off-c.base:]
		k := min(len(v), len(p)/8)
		for j := range v[:k] {
			v[j] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*j:]))
		}
		v = v[k:]
		c.off += 8 * k
	}
}

// vecs decodes a vector list. A copied list that lies in the window takes
// one allocation for all its values: a first pass over the length headers
// sizes the backing array, and each vector is a full slice expression of
// it, so none can append into its neighbour. Any other list is decoded
// vector by vector, which fails where it always did.
func (c *cursor) vecs() []linalg.Vector {
	n, ok := c.sliceLen()
	if !ok || c.err != nil {
		return nil
	}
	vs := make([]linalg.Vector, n)
	total, inWindow := 0, false
	if !c.alias {
		total, inWindow = c.sizeVecs(n)
	}
	if !inWindow {
		for i := range vs {
			vs[i] = c.vec()
		}
		return vs
	}
	backing := make([]float64, total)
	copied := 0
	for i := range vs {
		m, ok := c.sliceLen()
		if !ok {
			continue // absent stays nil
		}
		vs[i] = backing[:m:m]
		backing = backing[m:]
		c.floats(vs[i])
		copied++
	}
	c.mb.copied.Add(uint64(copied))
	return vs
}

// sizeVecs sums the lengths of the next n vectors without consuming them,
// reporting whether all n lie in the window: a copy of the cursor whose
// section ends where the window does walks their headers, so it never
// refills.
func (c *cursor) sizeVecs(n int) (total int, inWindow bool) {
	t := *c
	t.hi = c.base + len(c.win)
	for i := 0; i < n && t.err == nil; i++ {
		if m, ok := t.sliceLen(); ok {
			total += m
			t.skip(8 * m)
		}
	}
	return total, t.err == nil
}

func (c *cursor) times() []time.Time {
	n, ok := c.sliceLen()
	if !ok || c.err != nil {
		return nil
	}
	ts := make([]time.Time, n)
	for i := range ts {
		ts[i] = time.Unix(0, c.i64()).UTC()
	}
	return ts
}

func (c *cursor) events() []temporal.Event {
	n, ok := c.sliceLen()
	if !ok || c.err != nil {
		return nil
	}
	es := make([]temporal.Event, n)
	for i := range es {
		es[i] = temporal.Event{
			Time:    time.Unix(0, c.i64()).UTC(),
			Lat:     c.f64(),
			Lon:     c.f64(),
			MediaID: c.u64(),
		}
	}
	return es
}

func (c *cursor) friends() []graph.Friend {
	n, ok := c.sliceLen()
	if !ok || c.err != nil {
		return nil
	}
	fs := make([]graph.Friend, n)
	for i := range fs {
		fs[i] = graph.Friend{ID: int(c.i64()), Weight: c.f64()}
	}
	return fs
}

func (c *cursor) i32s() []int32 {
	n, ok := c.sliceLen()
	if !ok || c.err != nil {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(c.u32())
	}
	return vs
}

func (c *cursor) candidates() []blocking.Candidate {
	m, ok := c.sliceLen()
	if !ok || c.err != nil {
		return nil
	}
	row := make([]blocking.Candidate, m)
	for j := range row {
		row[j] = blocking.Candidate{
			A:          int(c.u32()),
			B:          int(c.u32()),
			Score:      c.f64(),
			PreMatched: c.u8() == 1,
		}
	}
	return row
}

// finish reports a stuck decode error or trailing bytes.
func (c *cursor) finish(what string) error {
	if c.err != nil {
		return fmt.Errorf("pipeline: decode v3 %s: %w", what, c.err)
	}
	if c.off != c.hi {
		return fmt.Errorf("pipeline: v3 %s has %d trailing bytes — corrupt bundle", what, c.hi-c.off)
	}
	return nil
}
