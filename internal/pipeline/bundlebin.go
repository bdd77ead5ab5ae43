package pipeline

// Bundle format v3: the binary-section encoding WriteBundle writes and
// the one reader in bundlemap.go parses. At serving scale a bundle's
// bulk is numeric — account views (temporal events, post times, topic /
// genre / sentiment distributions, embeddings), top-friends slices,
// index shards and the model's support vectors — and JSON spends ~20
// text bytes plus parsing per float64 where 8 raw bytes round-trip the
// exact bits for free. v3 therefore splits the file:
//
//	"HYB3"                         4-byte magic (checkMagic)
//	u64 header length              little-endian
//	header JSON                    everything small or stringly: the
//	                               pipeline parts, per-view profile
//	                               strings, face matcher, model config +
//	                               bias + diagnostics, pairs, index
//	                               rules, provenance
//	4 × (u64 length | payload)     binary sections, fixed order: model
//	                               (support vectors + duals), view
//	                               numerics, friend slices, index shards
//	0–2 × (u64 length | payload)   optional sections the header
//	                               announces: prescreen, impute table
//
// The file ends with the last announced section; the reader refuses
// trailing bytes. All integers are little-endian and fixed width; floats
// are raw IEEE-754 bits (bit-exact by construction). Slices are written
// with a presence byte before the count so nil and empty survive the
// round trip, keeping a v3 decode deep-equal to the bundle that was
// written. Times are stored as Unix nanoseconds and restored in UTC, the
// zone the pipeline works in. The format is golden-pinned by
// TestBundleV3GoldenFormat.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/temporal"
	"hydra/internal/vision"
)

// bundleMagic identifies a v3 binary bundle; it is deliberately invalid
// as the first bytes of a JSON document.
const bundleMagic = "HYB3"

// checkMagic refuses a file that does not open with the v3 magic, for
// the reader and for the tests' reference decoder, so both refuse in the
// same words. A JSON document gets its own message:
// it is a retired v1 model artifact or v2 bundle, and the way forward is
// a new bundle from the training world, not a hex dump.
func checkMagic(head []byte) error {
	if string(head) == bundleMagic {
		return nil
	}
	if len(head) > 0 && head[0] == '{' {
		return fmt.Errorf("pipeline: JSON document, not a v%d bundle — JSON files are no longer read; pack one with hydra-link -save-bundle from the training world", BundleVersion)
	}
	return fmt.Errorf("pipeline: bad bundle magic %q", head)
}

// bundleHeaderV3 is the JSON header: the bundle minus its binary
// sections, plus the per-view profile strings the view section omits.
type bundleHeaderV3 struct {
	Version  int                          `json:"version"`
	Pipeline features.PipelineParts       `json:"pipeline"`
	Views    map[platform.ID][]viewMetaV3 `json:"views"`
	FriendsK int                          `json:"friends_k"`
	Faces    vision.Matcher               `json:"faces"`
	Model    modelMetaV3                  `json:"model"`
	Pairs    [][2]platform.ID             `json:"pairs"`
	Indexes  []indexMetaV3                `json:"indexes"`
	Shard    *ShardDesc                   `json:"shard,omitempty"`

	// Prescreen announces the optional trailing prescreen section (its
	// scalars here, its vectors there). Omitted — as every pre-prescreen
	// bundle omits it — means no fifth section follows and the engine
	// serves exact-only, so old bundles decode unchanged.
	Prescreen *prescreenMetaV3 `json:"prescreen,omitempty"`

	// ImputeTable announces the optional trailing impute-table section
	// (its scalars here, its ids/counts/sums there), after the prescreen
	// section when both are present. Omitted means no such section
	// follows and the engine imputes live, so old bundles decode
	// unchanged.
	ImputeTable *imputeTableMetaV3 `json:"impute_table,omitempty"`

	WorldPersons     int    `json:"world_persons"`
	WorldFingerprint string `json:"world_fingerprint"`
}

// prescreenMetaV3 is a core.PrescreenParts minus its center and fitted
// vectors, which live in the prescreen section. RFF counted the
// features of a random-Fourier block no packer ever shipped; v3 keeps
// the key (always 0) and the section keeps the block's two vectors
// (always empty) so that packed bundles do not change a byte.
type prescreenMetaV3 struct {
	Features int     `json:"features"`
	RFF      int     `json:"rff"`
	Dim      int     `json:"dim"`
	Seed     int64   `json:"seed"`
	Sigma    float64 `json:"sigma"`
	EpsRaw   float64 `json:"eps_raw"`
	Safety   float64 `json:"safety"`
	Eps      float64 `json:"eps"`
}

// parts assembles the prescreen from the header scalars and the
// section's four vectors, refusing a Fourier block — shared with the
// tests' reference decoder, like checkMagic.
func (hp *prescreenMetaV3) parts(w, b, c, v linalg.Vector) (*core.PrescreenParts, error) {
	if hp.RFF != 0 || len(w) != 0 || len(b) != 0 {
		return nil, fmt.Errorf("pipeline: v%d prescreen carries a random-Fourier block (rff=%d) — that basis is no longer read; pack a new bundle with hydra-link -save-bundle from the training world", BundleVersion, hp.RFF)
	}
	p := &core.PrescreenParts{
		Features: hp.Features, Dim: hp.Dim, Seed: hp.Seed,
		Sigma: hp.Sigma, EpsRaw: hp.EpsRaw, Safety: hp.Safety, Eps: hp.Eps,
		C: c, V: v,
	}
	// Shape-check against the header's announced dimensions here, so a
	// truncated or hand-edited prescreen fails at load time rather than
	// mis-pruning a top-k later.
	return p, p.Validate()
}

// imputeTableMetaV3 is a core.ImputeTableParts minus its id, count and
// sum arrays, which live in the impute-table section. Entries pins each
// platform pair's entry count so a truncated section fails shape checks
// at load time.
type imputeTableMetaV3 struct {
	K     int                     `json:"k"`
	Dim   int                     `json:"dim"`
	Pairs []imputeTablePairMetaV3 `json:"pairs"`
}

type imputeTablePairMetaV3 struct {
	PA      platform.ID `json:"pa"`
	PB      platform.ID `json:"pb"`
	Entries int         `json:"entries"`
}

// viewMetaV3 is the stringly half of a features.ViewParts; the numeric
// half lives in the view section.
type viewMetaV3 struct {
	Username string                       `json:"username"`
	Attrs    map[platform.AttrName]string `json:"attrs,omitempty"`
	AvatarID uint64                       `json:"avatar_id,omitempty"`
	Unique   []string                     `json:"unique,omitempty"`
}

// modelMetaV3 is core.ModelParts minus the support vectors and duals,
// which live in the model section.
type modelMetaV3 struct {
	Cfg         core.Config      `json:"cfg"`
	KernelKind  string           `json:"kernel_kind"`
	KernelSigma float64          `json:"kernel_sigma,omitempty"`
	Bias        float64          `json:"bias"`
	Diag        core.Diagnostics `json:"diag"`
}

// indexMetaV3 is a blocking.IndexParts minus its shards, which live in
// the index section.
type indexMetaV3 struct {
	PA    platform.ID    `json:"pa"`
	PB    platform.ID    `json:"pb"`
	Rules blocking.Rules `json:"rules"`
}

// writeBundleV3 encodes the bundle as magic + JSON header + binary
// sections. The section payloads are assembled in memory first (their
// length prefixes need final sizes); a 100-person bundle's sections are
// ~1 MB, so this costs one transient buffer, not a second bundle.
func writeBundleV3(w io.Writer, b *Bundle) error {
	plats := sortedPlatformIDs(b.Views)
	header := bundleHeaderV3{
		Version:  BundleVersion,
		Pipeline: b.Pipeline,
		Views:    make(map[platform.ID][]viewMetaV3, len(b.Views)),
		FriendsK: b.FriendsK,
		Faces:    b.Faces,
		Model: modelMetaV3{
			Cfg:         b.Model.Cfg,
			KernelKind:  b.Model.KernelKind,
			KernelSigma: b.Model.KernelSigma,
			Bias:        b.Model.Bias,
			Diag:        b.Model.Diag,
		},
		Pairs:            b.Pairs,
		Shard:            b.Shard,
		WorldPersons:     b.WorldPersons,
		WorldFingerprint: b.WorldFingerprint,
	}
	for id, views := range b.Views {
		metas := make([]viewMetaV3, len(views))
		for i, v := range views {
			metas[i] = viewMetaV3{Username: v.Username, Attrs: v.Attrs, AvatarID: v.AvatarID, Unique: v.Unique}
		}
		header.Views[id] = metas
	}
	for _, ix := range b.Indexes {
		header.Indexes = append(header.Indexes, indexMetaV3{PA: ix.PA, PB: ix.PB, Rules: ix.Rules})
	}
	if p := b.Prescreen; p != nil {
		header.Prescreen = &prescreenMetaV3{
			Features: p.Features, Dim: p.Dim, Seed: p.Seed,
			Sigma: p.Sigma, EpsRaw: p.EpsRaw, Safety: p.Safety, Eps: p.Eps,
		}
	}
	if t := b.ImputeTable; t != nil {
		meta := &imputeTableMetaV3{K: t.K, Dim: t.Dim}
		for i := range t.Pairs {
			pp := &t.Pairs[i]
			meta.Pairs = append(meta.Pairs, imputeTablePairMetaV3{
				PA: pp.PA, PB: pp.PB, Entries: len(pp.A),
			})
		}
		header.ImputeTable = meta
	}
	headerJSON, err := json.Marshal(header)
	if err != nil {
		return fmt.Errorf("pipeline: encode v3 header: %w", err)
	}

	var model, views, friends, indexes binSection
	model.putVecs(b.Model.Xs)
	model.putVec(b.Model.Alpha)
	for _, id := range plats {
		vs := b.Views[id]
		views.putU32(uint32(len(vs)))
		for _, v := range vs {
			views.putEvents(v.Events)
			views.putTimes(v.PostTimes)
			views.putVecs(v.TopicDists)
			views.putVecs(v.GenreDists)
			views.putVecs(v.SentDists)
			views.putVec(v.Embedding)
		}
		fs := b.Friends[id]
		friends.putU32(uint32(len(fs)))
		for _, fr := range fs {
			friends.putFriends(fr)
		}
	}
	for _, ix := range b.Indexes {
		indexes.putShards(ix.ByA)
	}

	if _, err := io.WriteString(w, bundleMagic); err != nil {
		return err
	}
	var lenBuf [8]byte
	writeBlock := func(p []byte) error {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		_, err := w.Write(p)
		return err
	}
	if err := writeBlock(headerJSON); err != nil {
		return err
	}
	secs := []*binSection{&model, &views, &friends, &indexes}
	if p := b.Prescreen; p != nil {
		// The prescreen section trails the fixed four, announced by the
		// header, so a bundle without one is byte-identical to what
		// pre-prescreen writers produced.
		var prescreen binSection
		prescreen.putVec(nil) // the retired Fourier block's projection
		prescreen.putVec(nil) // and phases; see prescreenMetaV3
		prescreen.putVec(p.C)
		prescreen.putVec(p.V)
		secs = append(secs, &prescreen)
	}
	if t := b.ImputeTable; t != nil {
		// The impute-table section trails the prescreen (when present) in
		// fixed order, announced by the header like the prescreen is.
		var table binSection
		for i := range t.Pairs {
			pp := &t.Pairs[i]
			table.putI32s(pp.A)
			table.putI32s(pp.B)
			table.putVec(pp.Counts)
			table.putVec(pp.Sums)
		}
		secs = append(secs, &table)
	}
	for _, sec := range secs {
		if sec.err != nil {
			return fmt.Errorf("pipeline: encode v3 sections: %w", sec.err)
		}
		if err := writeBlock(sec.buf); err != nil {
			return err
		}
	}
	return nil
}

// sortedPlatformIDs returns a platform-keyed map's ids in sorted order —
// the order the binary sections are laid out in, and the same order the
// JSON header's map keys marshal in, so writer and reader agree without
// a separate section directory.
func sortedPlatformIDs[T any](m map[platform.ID]T) []platform.ID {
	out := make([]platform.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// binSection is a little-endian, length-prefixed binary buffer the
// writer appends to; the reader's cursor (bundlemap.go) consumes the
// same layout. The first error sticks, and the writer checks it once at
// the end.
type binSection struct {
	buf []byte
	err error
}

func (s *binSection) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *binSection) putU8(v uint8)   { s.buf = append(s.buf, v) }
func (s *binSection) putU32(v uint32) { s.buf = binary.LittleEndian.AppendUint32(s.buf, v) }
func (s *binSection) putU64(v uint64) { s.buf = binary.LittleEndian.AppendUint64(s.buf, v) }
func (s *binSection) putI64(v int64)  { s.putU64(uint64(v)) }
func (s *binSection) putF64(v float64) {
	s.putU64(math.Float64bits(v))
}

// putLen writes a presence byte and the length, preserving nil vs empty.
func (s *binSection) putLen(n int, isNil bool) {
	if isNil {
		s.putU8(0)
		return
	}
	s.putU8(1)
	s.putU32(uint32(n))
}

func (s *binSection) putVec(v linalg.Vector) {
	s.putLen(len(v), v == nil)
	for _, x := range v {
		s.putF64(x)
	}
}

func (s *binSection) putVecs(vs []linalg.Vector) {
	s.putLen(len(vs), vs == nil)
	for _, v := range vs {
		s.putVec(v)
	}
}

func (s *binSection) putTimes(ts []time.Time) {
	s.putLen(len(ts), ts == nil)
	for _, t := range ts {
		s.putI64(t.UnixNano())
	}
}

func (s *binSection) putEvents(es []temporal.Event) {
	s.putLen(len(es), es == nil)
	for _, e := range es {
		s.putI64(e.Time.UnixNano())
		s.putF64(e.Lat)
		s.putF64(e.Lon)
		s.putU64(e.MediaID)
	}
}

func (s *binSection) putFriends(fs []graph.Friend) {
	s.putLen(len(fs), fs == nil)
	for _, f := range fs {
		s.putI64(int64(f.ID))
		s.putF64(f.Weight)
	}
}

// putI32s writes non-negative int32 ids as u32s (the id width the index
// section already commits to), presence-prefixed like every slice.
func (s *binSection) putI32s(vs []int32) {
	s.putLen(len(vs), vs == nil)
	for _, v := range vs {
		if v < 0 {
			s.fail(fmt.Errorf("account id %d out of the u32 range the impute-table section encodes", v))
			return
		}
		s.putU32(uint32(v))
	}
}

func (s *binSection) putShards(byA [][]blocking.Candidate) {
	s.putLen(len(byA), byA == nil)
	for _, shard := range byA {
		s.putLen(len(shard), shard == nil)
		for _, c := range shard {
			if c.A < 0 || c.A > math.MaxUint32 || c.B < 0 || c.B > math.MaxUint32 {
				s.fail(fmt.Errorf("candidate ids (%d, %d) out of the u32 range the index section encodes", c.A, c.B))
				return
			}
			s.putU32(uint32(c.A))
			s.putU32(uint32(c.B))
			s.putF64(c.Score)
			if c.PreMatched {
				s.putU8(1)
			} else {
				s.putU8(0)
			}
		}
	}
}
