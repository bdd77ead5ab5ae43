package pipeline

// The reference v3 decoder: a streaming heap reader, written apart from
// MappedBundle so that tests can hold the product's one parser to a
// second parse of the same bytes. It shares with the product reader only
// the cursor's scalar and slice primitives (take, sliceLen, events,
// times, friends, i32s), read over a whole-section window, and
// checkMagic and prescreenMetaV3.parts, so its refusals read the same;
// the framing, the section walk, the vector decodes and the index rows
// are its own. The differential tests
// (TestBundleReadersAgree, TestOpenBundleMappedMatchesDecode,
// FuzzReadersAgree) hold the product reader to it.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// readBundleV3 decodes magic + header + sections back into a Bundle.
func readBundleV3(r io.Reader) (*Bundle, error) {
	magic := make([]byte, len(bundleMagic))
	n, err := io.ReadFull(r, magic)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("pipeline: read bundle magic: %w", err)
	}
	if err := checkMagic(magic[:n]); err != nil { // a short file fails here
		return nil, err
	}
	readBlock := func(what string) ([]byte, error) {
		var lenBuf [8]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("pipeline: read v3 %s length: %w", what, err)
		}
		n := binary.LittleEndian.Uint64(lenBuf[:])
		const maxSection = 1 << 33 // 8 GiB: far above any real bundle, far below a length-corruption OOM
		if n > maxSection {
			return nil, fmt.Errorf("pipeline: v3 %s claims %d bytes — corrupt bundle", what, n)
		}
		// Allocate at most a chunk before bytes actually arrive: a
		// corrupt length on a short file must fail at EOF, not OOM on
		// the upfront make (a 25-byte input can claim a 4 GiB section).
		const upfront = 1 << 26 // 64 MiB
		if n <= upfront {
			p := make([]byte, n)
			if _, err := io.ReadFull(r, p); err != nil {
				return nil, fmt.Errorf("pipeline: read v3 %s: %w", what, err)
			}
			return p, nil
		}
		var buf bytes.Buffer
		buf.Grow(upfront)
		if m, err := io.CopyN(&buf, r, int64(n)); err != nil {
			return nil, fmt.Errorf("pipeline: read v3 %s: %w (got %d of %d bytes)", what, err, m, n)
		}
		return buf.Bytes(), nil
	}
	headerJSON, err := readBlock("header")
	if err != nil {
		return nil, err
	}
	var header bundleHeaderV3
	if err := json.Unmarshal(headerJSON, &header); err != nil {
		return nil, fmt.Errorf("pipeline: decode v3 header: %w", err)
	}
	if header.Version != BundleVersion {
		return nil, fmt.Errorf("pipeline: binary bundle version %d, this build reads version %d", header.Version, BundleVersion)
	}
	if err := header.Shard.Validate(); err != nil {
		return nil, err
	}
	var secs [4]refSection
	for i, what := range []string{"model section", "view section", "friend section", "index section"} {
		p, err := readBlock(what)
		if err != nil {
			return nil, err
		}
		secs[i] = newRefSection(p)
	}
	model, views, friends, indexes := &secs[0], &secs[1], &secs[2], &secs[3]

	b := &Bundle{
		Version:  header.Version,
		Pipeline: header.Pipeline,
		Views:    make(map[platform.ID][]features.ViewParts, len(header.Views)),
		Friends:  make(map[platform.ID][][]graph.Friend, len(header.Views)),
		FriendsK: header.FriendsK,
		Faces:    header.Faces,
		Model: core.ModelParts{
			Cfg:         header.Model.Cfg,
			KernelKind:  header.Model.KernelKind,
			KernelSigma: header.Model.KernelSigma,
			Bias:        header.Model.Bias,
			Diag:        header.Model.Diag,
		},
		Pairs:            header.Pairs,
		Shard:            header.Shard,
		WorldPersons:     header.WorldPersons,
		WorldFingerprint: header.WorldFingerprint,
	}
	b.Model.Xs = model.vecs()
	b.Model.Alpha = model.vec()

	for _, id := range sortedPlatformIDs(header.Views) {
		metas := header.Views[id]
		nv := int(views.u32())
		if nv != len(metas) {
			return nil, fmt.Errorf("pipeline: v3 view section has %d accounts for %s, header lists %d", nv, id, len(metas))
		}
		vs := make([]features.ViewParts, nv)
		for i := 0; i < nv; i++ {
			vs[i] = features.ViewParts{
				Username:   metas[i].Username,
				Attrs:      metas[i].Attrs,
				AvatarID:   metas[i].AvatarID,
				Unique:     metas[i].Unique,
				Events:     views.events(),
				PostTimes:  views.times(),
				TopicDists: views.vecs(),
				GenreDists: views.vecs(),
				SentDists:  views.vecs(),
				Embedding:  views.vec(),
			}
		}
		b.Views[id] = vs
		nf := int(friends.u32())
		if nf != nv {
			return nil, fmt.Errorf("pipeline: v3 friend section has %d accounts for %s, view section has %d", nf, id, nv)
		}
		frs := make([][]graph.Friend, nf)
		for i := 0; i < nf; i++ {
			frs[i] = friends.friends()
		}
		b.Friends[id] = frs
	}
	for _, meta := range header.Indexes {
		b.Indexes = append(b.Indexes, blocking.IndexParts{
			PA: meta.PA, PB: meta.PB, Rules: meta.Rules, ByA: indexes.shards(),
		})
	}
	secList := []*refSection{model, views, friends, indexes}
	if hp := header.Prescreen; hp != nil {
		p, err := readBlock("prescreen section")
		if err != nil {
			return nil, err
		}
		prescreen := newRefSection(p)
		w, ph, c, v := prescreen.vec(), prescreen.vec(), prescreen.vec(), prescreen.vec()
		if prescreen.err == nil { // a torn section is reported below, with the others
			if b.Prescreen, err = hp.parts(w, ph, c, v); err != nil {
				return nil, err
			}
		}
		secList = append(secList, &prescreen)
	}
	if ht := header.ImputeTable; ht != nil {
		p, err := readBlock("impute-table section")
		if err != nil {
			return nil, err
		}
		table := newRefSection(p)
		t := &core.ImputeTableParts{K: ht.K, Dim: ht.Dim}
		for _, pm := range ht.Pairs {
			pp := core.ImputeTablePairParts{
				PA: pm.PA, PB: pm.PB,
				A: table.i32s(), B: table.i32s(),
				Counts: table.vec(), Sums: table.vec(),
			}
			if table.err == nil && len(pp.A) != pm.Entries {
				return nil, fmt.Errorf("pipeline: v3 impute-table section has %d entries for %s/%s, header lists %d",
					len(pp.A), pm.PA, pm.PB, pm.Entries)
			}
			t.Pairs = append(t.Pairs, pp)
		}
		b.ImputeTable = t
		secList = append(secList, &table)
	}
	// The mapped reader refuses bytes past the last announced section;
	// the two readers must agree on what a valid file is.
	if extra, err := io.Copy(io.Discard, r); err != nil {
		return nil, fmt.Errorf("pipeline: read v3 bundle tail: %w", err)
	} else if extra != 0 {
		return nil, fmt.Errorf("pipeline: v3 bundle has %d trailing bytes — corrupt bundle", extra)
	}
	for i, sec := range secList {
		if sec.err != nil {
			return nil, fmt.Errorf("pipeline: decode v3 section %d: %w", i, sec.err)
		}
		if sec.off != sec.hi {
			return nil, fmt.Errorf("pipeline: v3 section %d has %d trailing bytes — corrupt bundle", i, sec.hi-sec.off)
		}
	}
	if b.ImputeTable != nil {
		// Same load-time shape check for the impute table, so corruption
		// fails here instead of mis-filling a feature vector later.
		if err := b.ImputeTable.Validate(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// refSection reads one section through the product's cursor over a
// whole-section window, with vector and index-row decodes of its own.
type refSection struct{ cursor }

func newRefSection(p []byte) refSection {
	return refSection{cursor{hi: len(p), win: p}}
}

func (s *refSection) vec() linalg.Vector {
	n, ok := s.sliceLen()
	if !ok || s.err != nil {
		return nil
	}
	v := make(linalg.Vector, n)
	for i := range v {
		v[i] = s.f64()
	}
	return v
}

func (s *refSection) vecs() []linalg.Vector {
	n, ok := s.sliceLen()
	if !ok || s.err != nil {
		return nil
	}
	vs := make([]linalg.Vector, n)
	for i := range vs {
		vs[i] = s.vec()
	}
	return vs
}

func (s *refSection) shards() [][]blocking.Candidate {
	n, ok := s.sliceLen()
	if !ok || s.err != nil {
		return nil
	}
	byA := make([][]blocking.Candidate, n)
	for i := range byA {
		m, ok := s.sliceLen()
		if !ok || s.err != nil {
			continue
		}
		shard := make([]blocking.Candidate, m)
		for j := range shard {
			shard[j] = blocking.Candidate{
				A:          int(s.u32()),
				B:          int(s.u32()),
				Score:      s.f64(),
				PreMatched: s.u8() == 1,
			}
		}
		byA[i] = shard
	}
	return byA
}
