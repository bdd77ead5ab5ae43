package pipeline

// Out-of-RAM serving: OpenBundleMapped reads a v3 bundle without
// decoding it. The file is memory-mapped (read-only, shared), only the
// JSON header is parsed eagerly, and each length-prefixed binary
// section is exposed as a lazy view: account views, friend slices and
// index rows are located by a cheap skip-scan at open time (offsets
// only — no allocation proportional to payload) and materialized on
// first touch. Cold start is therefore O(header + offsets) instead of
// O(bundle).
//
// Two things bound resident memory, one per kind of page:
//
//   - Heap: decoded views are the bulk of it (a view plus its derived
//     state is ≈ 9 KB on the benchmark's world), so they alone are
//     capped: at most maxResidentViews stay cached, and a second-chance
//     (CLOCK) sweep drops the least recently touched once a first touch
//     crosses the cap. Friend slices and index rows are small and stay
//     cached for the life of the mapping.
//   - File pages: every read of the mapping faults pages in, and the
//     kernel can map far more than the bytes read (≈ 300 KB for a
//     one-byte read on linux 6.x), so a window of scattered first
//     touches would otherwise leave the whole file resident. Views,
//     friend slices and index rows therefore always copy-decode —
//     nothing materialized from those three sections needs the file
//     again — and their pages are handed back (dropLazy): by the
//     open-time skip-scan every scanDropStep bytes, and after every
//     sweep batch (viewCap/8) of first-touch view decodes. Dropped pages
//     re-fault from the page cache with identical bytes, so no answer
//     can change.
//
// The model, prescreen and impute-table sections are decoded once at
// open, and their vectors alias the mapping where the host byte order
// and the payload's 8-byte alignment allow (see aliasFloat64s); their
// pages are never handed back.
//
// Lifetime: the model, prescreen and impute-table vectors may alias the
// mapping, so it must outlive every reader. Close unmaps; callers (the
// serve engine) must drain in-flight queries first — see
// serve.Engine.Retire.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// maxResidentViews caps the decoded views one mapped bundle keeps. A
// 64-candidate top-k touches about 260 views (the candidates plus both
// sides' imputation friends), so the cap holds the working sets of
// several concurrent requests — ≈ 30 MB of decoded views — while a
// 50k-account bundle no longer keeps every view it ever decoded.
const maxResidentViews = 4096

// scanDropStep is how far the open-time skip-scan reads past the pages
// it has handed back, and so the scan's own peak residency.
const scanDropStep = 16 << 20

// pageSize is the granularity pages are handed back at.
var pageSize = os.Getpagesize()

// MapOptions tunes OpenBundleMapped.
type MapOptions struct {
	// NoMmap skips the memory map and reads the whole file into heap
	// memory instead. Sections still decode lazily; only the backing
	// storage changes, and nothing is ever handed back (the copy is
	// anonymous memory). This is also the silent fallback when the
	// platform cannot mmap.
	NoMmap bool

	// NoZeroCopy forces the model, prescreen and impute-table vectors to
	// copy-decode instead of aliasing the mapping. Views never alias it,
	// with or without this. Bit-identical output either way; this exists
	// for the equivalence tests and as an operational escape hatch.
	NoZeroCopy bool
}

// MappedStats reports what a mapped bundle has materialized so far.
type MappedStats struct {
	Mapped      bool // true when backed by an OS memory map (false = heap fallback)
	Bytes       int  // file size
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
// sections mapped, payloads materialized on first touch. It implements
// core.LazySnapshot, so core.NewLazyStore can serve straight off it.
type MappedBundle struct {
	data    []byte
	unmap   func() error
	mapped  bool
	noAlias bool
	closed  atomic.Bool

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

	// lazyLo and lazyHi bound the page-aligned interior of the view,
	// friend and index sections (file offsets): the pages dropLazy may
	// hand back. viewDecodes counts first-touch view decodes, which pace
	// the drops; scanDropAt is where the open-time scan next drops.
	lazyLo, lazyHi int
	viewDecodes    atomic.Int64
	scanDropAt     int

	aliased, copied                atomic.Uint64
	resViews, resFriends, resRows  atomic.Int64
	totalViews, totalFriends, rows int
}

// mappedViews is one platform's slice of the view section: the header
// metas, each account's byte offset into the section, and its window of
// the bundle's view slots.
type mappedViews struct {
	metas []viewMetaV3
	buf   []byte
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

type mappedFriends struct {
	buf   []byte
	off   []int
	cache []atomic.Pointer[[]graph.Friend]
}

type mappedIndex struct {
	mb     *MappedBundle
	meta   indexMetaV3
	buf    []byte
	rowOff []int
	rowLen []int
	cache  []atomic.Pointer[[]blocking.Candidate]
}

// OpenBundleMapped opens a v3 bundle lazily. The returned bundle holds an
// OS mapping until Close; nothing materialized from it may be used
// afterwards. The mapping is shared with the file, so a served bundle
// must only ever be replaced by rename (as SaveBundle does), never
// rewritten in place.
func OpenBundleMapped(path string, opts MapOptions) (*MappedBundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	mb := &MappedBundle{noAlias: opts.NoZeroCopy, viewCap: maxResidentViews}
	if size := st.Size(); !opts.NoMmap && mmapSupported && size > 0 && size <= math.MaxInt {
		if data, unmap, err := mmapFile(f, int(size)); err == nil {
			mb.data, mb.unmap, mb.mapped = data, unmap, true
		}
	}
	if mb.data == nil {
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, err
		}
		mb.data = data
	}
	if err := mb.open(); err != nil {
		mb.Close()
		return nil, err
	}
	// The skip-scan handed its pages back a step at a time; give back its
	// last partial step too, so cold-start RSS is O(header + offset
	// tables + the aliased sections), not O(bundle).
	mb.dropLazy(len(mb.data))
	return mb, nil
}

// open parses the header, bounds-checks every section against the file
// size, eagerly decodes the small sections (model, prescreen, impute
// table — their vectors alias the mapping where possible) and skip-scans
// the bulky ones (views, friends, indexes) into per-entry offset tables.
func (mb *MappedBundle) open() error {
	data := mb.data
	if err := checkMagic(data[:min(len(data), len(bundleMagic))]); err != nil {
		return err
	}
	off := len(bundleMagic)
	block := func(what string) ([]byte, error) {
		if len(data)-off < 8 {
			return nil, fmt.Errorf("pipeline: read v3 %s length: file truncated at byte %d", what, off)
		}
		n := binary.LittleEndian.Uint64(data[off:])
		off += 8
		const maxSection = 1 << 33
		if n > maxSection {
			return nil, fmt.Errorf("pipeline: v3 %s claims %d bytes — corrupt bundle", what, n)
		}
		if int(n) > len(data)-off {
			return nil, fmt.Errorf("pipeline: v3 %s wants %d bytes, file has %d left — truncated bundle", what, n, len(data)-off)
		}
		p := data[off : off+int(n)]
		off += int(n)
		return p, nil
	}

	headerJSON, err := block("header")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(headerJSON, &mb.header); err != nil {
		return fmt.Errorf("pipeline: decode v3 header: %w", err)
	}
	if mb.header.Version != BundleVersion {
		return fmt.Errorf("pipeline: binary bundle version %d, this build reads version %d", mb.header.Version, BundleVersion)
	}
	if err := mb.header.Shard.Validate(); err != nil {
		return err
	}

	modelBuf, err := block("model section")
	if err != nil {
		return err
	}
	// The view, friend and index sections are contiguous, and nothing
	// materialized from them aliases the mapping: their page-aligned
	// interior is what dropLazy may hand back.
	lazyStart := off
	var secs [3][]byte
	for i, what := range []string{"view section", "friend section", "index section"} {
		if secs[i], err = block(what); err != nil {
			return err
		}
	}
	mb.lazyLo = (lazyStart + pageSize - 1) &^ (pageSize - 1)
	mb.lazyHi = off &^ (pageSize - 1)
	mb.scanDropAt = lazyStart + scanDropStep
	var prescreenBuf, tableBuf []byte
	if mb.header.Prescreen != nil {
		if prescreenBuf, err = block("prescreen section"); err != nil {
			return err
		}
	}
	if mb.header.ImputeTable != nil {
		if tableBuf, err = block("impute-table section"); err != nil {
			return err
		}
	}
	if off != len(data) {
		return fmt.Errorf("pipeline: v3 bundle has %d trailing bytes — corrupt bundle", len(data)-off)
	}

	if err := mb.decodeModel(modelBuf); err != nil {
		return err
	}
	if err := mb.decodePrescreen(prescreenBuf); err != nil {
		return err
	}
	if err := mb.decodeImputeTable(tableBuf); err != nil {
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

// dropLazy hands back the resident pages of the lazy sections' interior
// that lie wholly before file offset end. Those pages re-fault from the
// page cache with identical bytes, so this only trims residency. It
// never runs on a heap copy, where MADV_DONTNEED would zero-fill the
// bytes instead.
func (mb *MappedBundle) dropLazy(end int) {
	end = min(end&^(pageSize-1), mb.lazyHi)
	if mb.mapped && end > mb.lazyLo {
		dropResident(mb.data[mb.lazyLo:end])
	}
}

func (mb *MappedBundle) decodeModel(buf []byte) error {
	r := mb.reader(buf)
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

func (mb *MappedBundle) decodePrescreen(buf []byte) error {
	hp := mb.header.Prescreen
	if hp == nil {
		return nil
	}
	r := mb.reader(buf)
	w, b, c, v := r.vec(), r.vec(), r.vec(), r.vec()
	if err := r.finish("prescreen section"); err != nil {
		return err
	}
	var err error
	mb.prescreenParts, err = hp.parts(w, b, c, v)
	return err
}

func (mb *MappedBundle) decodeImputeTable(buf []byte) error {
	ht := mb.header.ImputeTable
	if ht == nil {
		return nil
	}
	r := mb.reader(buf)
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

func (mb *MappedBundle) scanViews(buf []byte) error {
	mb.plats = sortedPlatformIDs(mb.header.Views)
	mb.views = make(map[platform.ID]*mappedViews, len(mb.plats))
	nslots := 0
	for _, metas := range mb.header.Views {
		nslots += len(metas)
	}
	mb.viewSlots = make([]viewSlot, nslots)
	r := mb.reader(buf)
	for _, id := range mb.plats {
		metas := mb.header.Views[id]
		nv := int(r.u32())
		if r.err != nil {
			break
		}
		if nv != len(metas) {
			return fmt.Errorf("pipeline: v3 view section has %d accounts for %s, header lists %d", nv, id, len(metas))
		}
		mv := &mappedViews{
			metas: metas,
			buf:   buf,
			off:   make([]int, nv),
			slots: mb.viewSlots[mb.totalViews : mb.totalViews+nv],
		}
		for i := 0; i < nv && r.err == nil; i++ {
			mv.off[i] = r.off
			r.skipSlice(32) // events
			r.skipSlice(8)  // post times
			r.skipVecs()    // topic dists
			r.skipVecs()    // genre dists
			r.skipVecs()    // sentiment dists
			r.skipSlice(8)  // embedding
			r.scanned()
		}
		mb.views[id] = mv
		mb.totalViews += nv
	}
	return r.finish("view section")
}

func (mb *MappedBundle) scanFriends(buf []byte) error {
	mb.friends = make(map[platform.ID]*mappedFriends, len(mb.plats))
	r := mb.reader(buf)
	for _, id := range mb.plats {
		nf := int(r.u32())
		if r.err != nil {
			break
		}
		if nv := len(mb.views[id].off); nf != nv {
			return fmt.Errorf("pipeline: v3 friend section has %d accounts for %s, view section has %d", nf, id, nv)
		}
		mf := &mappedFriends{
			buf:   buf,
			off:   make([]int, nf),
			cache: make([]atomic.Pointer[[]graph.Friend], nf),
		}
		for i := 0; i < nf && r.err == nil; i++ {
			mf.off[i] = r.off
			r.skipSlice(16)
			r.scanned()
		}
		mb.friends[id] = mf
		mb.totalFriends += nf
	}
	return r.finish("friend section")
}

func (mb *MappedBundle) scanIndexes(buf []byte) error {
	r := mb.reader(buf)
	for _, meta := range mb.header.Indexes {
		mi := &mappedIndex{mb: mb, meta: meta, buf: buf}
		nrows, ok := r.sliceLen()
		if ok && r.err == nil {
			mi.rowOff = make([]int, nrows)
			mi.rowLen = make([]int, nrows)
			mi.cache = make([]atomic.Pointer[[]blocking.Candidate], nrows)
			for i := 0; i < nrows && r.err == nil; i++ {
				mi.rowOff[i] = r.off
				if m, ok := r.sliceLen(); ok {
					r.take(17 * m)
					mi.rowLen[i] = m
				}
				r.scanned()
			}
			mb.rows += nrows
		}
		mb.indexes = append(mb.indexes, mi)
	}
	return r.finish("index section")
}

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
	if local < 0 || local >= len(mv.off) {
		return nil, fmt.Errorf("pipeline: account %d out of range (%s mapped bundle has %d)", local, id, len(mv.off))
	}
	s := &mv.slots[local]
	if v := s.v.Load(); v != nil {
		if !s.ref.Load() {
			s.ref.Store(true)
		}
		return v, nil
	}
	r := mb.readerAt(mv.buf, mv.off[local])
	meta := &mv.metas[local]
	parts := features.ViewParts{
		Username: meta.Username, Attrs: meta.Attrs, AvatarID: meta.AvatarID, Unique: meta.Unique,
		Events: r.events(), PostTimes: r.times(),
		TopicDists: r.vecs(), GenreDists: r.vecs(), SentDists: r.vecs(),
		Embedding: r.vec(),
	}
	if r.err != nil {
		return nil, fmt.Errorf("pipeline: decode mapped view %s/%d: %w", id, local, r.err)
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
	// The decode faulted in far more of the file than it read, and the
	// view no longer needs any of it: every sweep batch of first touches,
	// hand the lazy sections' pages back.
	if mb.viewDecodes.Add(1)%mb.sweepBatch() == 0 {
		mb.dropLazy(len(mb.data))
	}
	if mb.resViews.Add(1) > int64(mb.viewCap) {
		mb.evictViews()
	}
	return v, nil
}

// sweepBatch is how many views a sweep evicts, an eighth of the cap, and
// so how many first touches apart sweeps — and page drops — run.
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
	if local < 0 || local >= len(mf.off) {
		return nil, fmt.Errorf("pipeline: account %d out of range (%s mapped bundle has %d)", local, id, len(mf.off))
	}
	if p := mf.cache[local].Load(); p != nil {
		return *p, nil
	}
	r := mb.readerAt(mf.buf, mf.off[local])
	fr := r.friends()
	if r.err != nil {
		return nil, fmt.Errorf("pipeline: decode mapped friends %s/%d: %w", id, local, r.err)
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
	return len(mv.off)
}

func (mi *mappedIndex) fetch(a int) []blocking.Candidate {
	if p := mi.cache[a].Load(); p != nil {
		return *p
	}
	r := mi.mb.readerAt(mi.buf, mi.rowOff[a])
	row := r.candidates()
	if r.err != nil {
		// Unreachable: the open-time scan walked this exact row.
		return nil
	}
	p := &row
	if mi.cache[a].CompareAndSwap(nil, p) {
		mi.mb.resRows.Add(1)
	} else {
		p = mi.cache[a].Load()
	}
	return *p
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
// off the mapping — the same store, checks and shard restriction as
// Bundle.Store, with entries materialized on first touch.
func (mb *MappedBundle) Store() (*core.LazyStore, error) {
	return newSnapshotStore(mb, mb.header.Pipeline, mb.header.FriendsK, mb.modelParts.Cfg.ResolvedTopFriends(), mb.header.Faces, mb.header.Shard, mb.tableParts)
}

// ModelParts returns the model parts (slices may alias the mapping).
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
		Mapped:          mb.mapped,
		Bytes:           len(mb.data),
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

// Mapped reports whether the bundle is backed by an OS memory map.
func (mb *MappedBundle) Mapped() bool { return mb.mapped }

// Close unmaps the file. Everything materialized from the bundle —
// views, vectors, the engine serving off it — must be out of use first;
// the serve tier guarantees that by draining in-flight requests before
// closing. Idempotent.
func (mb *MappedBundle) Close() error {
	if mb.closed.Swap(true) {
		return nil
	}
	if mb.unmap != nil {
		return mb.unmap()
	}
	return nil
}

// mapReader reads one section of the mapping: binSection's primitives
// plus alias-aware vector decoding and skip-scanning. Aliased vectors
// point into the mapping and share its lifetime.
type mapReader struct {
	binSection
	mb       *MappedBundle
	copyVecs bool // copy-decode even where aliasing is legal
}

// reader reads a section decoded at open, whose vectors may alias.
func (mb *MappedBundle) reader(buf []byte) *mapReader {
	return &mapReader{binSection: binSection{buf: buf}, mb: mb, copyVecs: mb.noAlias}
}

// readerAt reads one lazy entry (a view, friend slice or index row),
// which always copy-decodes so that its pages can be handed back.
func (mb *MappedBundle) readerAt(buf []byte, off int) *mapReader {
	return &mapReader{binSection: binSection{buf: buf, off: off}, mb: mb, copyVecs: true}
}

// vec decodes one vector, aliasing the payload in place when the host
// byte order, alignment and reader allow, copy-decoding otherwise.
// Shadowing binSection.vec is deliberate; vecs below re-dispatches to
// this method.
func (r *mapReader) vec() linalg.Vector {
	n, ok := r.sliceLen()
	if !ok || r.err != nil {
		return nil
	}
	p := r.take(8 * n)
	if r.err != nil {
		return nil
	}
	if !r.copyVecs {
		if v, ok := aliasFloat64s(p, n); ok {
			r.mb.aliased.Add(1)
			return v
		}
	}
	r.mb.copied.Add(1)
	v := make(linalg.Vector, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return v
}

// vecs decodes a vector list. A copy-decoded list takes one allocation
// for all its values: a first pass over the length headers sizes the
// backing array, and each vector is a full slice expression of it, so
// none can append into its neighbour. A list whose headers do not fit
// the section is decoded vector by vector, which fails where it always
// did.
func (r *mapReader) vecs() []linalg.Vector {
	n, ok := r.sliceLen()
	if !ok || r.err != nil {
		return nil
	}
	vs := make([]linalg.Vector, n)
	total, fits := 0, false
	if r.copyVecs {
		total, fits = r.sizeVecs(n)
	}
	if !fits {
		for i := range vs {
			vs[i] = r.vec()
		}
		return vs
	}
	backing := make([]float64, total)
	copied := 0
	for i := range vs {
		m, ok := r.sliceLen()
		if !ok {
			continue // absent stays nil
		}
		p := r.take(8 * m)
		v := backing[:m:m]
		backing = backing[m:]
		for j := range v {
			v[j] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*j:]))
		}
		vs[i] = v
		copied++
	}
	r.mb.copied.Add(uint64(copied))
	return vs
}

// sizeVecs sums the lengths of the next n vectors without consuming
// them, reporting whether all n fit the section.
func (r *mapReader) sizeVecs(n int) (total int, fits bool) {
	start := r.off
	for i := 0; i < n && r.err == nil; i++ {
		if m, ok := r.sliceLen(); ok {
			total += m
			r.take(8 * m)
		}
	}
	fits = r.err == nil
	r.off, r.err = start, nil
	return total, fits
}

func (r *mapReader) candidates() []blocking.Candidate {
	m, ok := r.sliceLen()
	if !ok || r.err != nil {
		return nil
	}
	row := make([]blocking.Candidate, m)
	for j := range row {
		row[j] = blocking.Candidate{
			A:          int(r.u32()),
			B:          int(r.u32()),
			Score:      r.f64(),
			PreMatched: r.u8() == 1,
		}
	}
	return row
}

// skipSlice advances past one presence-prefixed slice of fixed-width
// elements, returning its element count.
func (r *mapReader) skipSlice(elemSize int) int {
	n, ok := r.sliceLen()
	if !ok || r.err != nil {
		return 0
	}
	r.take(elemSize * n)
	return n
}

func (r *mapReader) skipVecs() {
	n, ok := r.sliceLen()
	if !ok || r.err != nil {
		return
	}
	for i := 0; i < n; i++ {
		r.skipSlice(8)
	}
}

// scanned runs after each entry of an open-time skip-scan: once the scan
// is scanDropStep past its last drop, it hands back what it has read,
// so open's own peak residency is one step, not the file.
func (r *mapReader) scanned() {
	// r.buf is a two-index subslice of the mapping, so the capacity it
	// lost is its file offset.
	pos := cap(r.mb.data) - cap(r.buf) + r.off
	if pos >= r.mb.scanDropAt {
		r.mb.dropLazy(pos)
		r.mb.scanDropAt = pos + scanDropStep
	}
}

// finish reports a stuck decode error or trailing bytes, matching the
// eager reader's corruption diagnostics.
func (r *mapReader) finish(what string) error {
	if r.err != nil {
		return fmt.Errorf("pipeline: decode v3 %s: %w", what, r.err)
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("pipeline: v3 %s has %d trailing bytes — corrupt bundle", what, len(r.buf)-r.off)
	}
	return nil
}
