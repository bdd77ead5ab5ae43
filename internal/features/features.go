// Package features assembles HYDRA's heterogeneous behavior model (paper
// Section 5): given two accounts on different platforms it produces the
// D-dimensional pairwise similarity vector x_ii' combining
//
//   - importance-weighted attribute matching (Section 5.1, Eqn 3),
//   - the simulated face-matching feature (Figure 4),
//   - username similarity (used by rule-based filtering and as a feature),
//   - multi-scale long-term topic/genre/sentiment distribution similarity
//     (Section 5.2, Figure 5),
//   - unique-word style similarity at k = 1,3,5 (Section 5.3, Eqn 4),
//   - multi-resolution temporal behavior matching with lq-pooling and
//     sigmoid calibration (Section 5.4, Figure 6, Eqn 5).
//
// Every feature carries an observation mask: HYDRA-M and HYDRA-Z differ
// only in how the False entries are imputed.
package features

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"hydra/internal/attr"
	"hydra/internal/kernel"
	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/temporal"
	"hydra/internal/text"
	"hydra/internal/topic"
	"hydra/internal/vision"
)

// Config parameterizes the pipeline.
type Config struct {
	// Topics is the LDA topic count.
	Topics int
	// LDAIterations is the Gibbs sweep count for training.
	LDAIterations int
	// MaxLDADocs caps the LDA training corpus size (subsampled
	// deterministically) to bound preprocessing cost.
	MaxLDADocs int
	// ScalesDays are the multi-scale topic bucket scales (paper: 1..32).
	ScalesDays []int
	// StyleKs are the unique-word counts of the style model (paper: 1,3,5).
	StyleKs []int
	// UniqueWordsPerUser is how many candidate unique words are kept per
	// user (max of StyleKs).
	UniqueWordsPerUser int
	// MR configures the multi-resolution sensor bank.
	MR temporal.MultiResolutionConfig
	// LocationSigmaKm is the Gaussian bandwidth of the location sensor.
	LocationSigmaKm float64
	// UseHistogramIntersection switches the topic-similarity kernel from
	// chi-square (default) to histogram intersection (ablation).
	UseHistogramIntersection bool
	// Epsilon is the attribute-importance smoothing constant ε of Eqn 3.
	Epsilon float64
	Seed    int64
}

// validate reports a configuration under which pair vectors could not be
// computed as configured. Both pipeline constructors call it, so a
// damaged config — one field of a bundle is enough — is refused when the
// pipeline is built instead of silently serving the dimensions it
// breaks as unobserved.
func (cfg Config) validate() error {
	if len(cfg.ScalesDays) == 0 {
		return fmt.Errorf("features: no temporal scales configured")
	}
	for _, days := range cfg.ScalesDays {
		if err := temporal.ValidDays(days); err != nil {
			return fmt.Errorf("features: bucket scale: %w", err)
		}
	}
	for _, k := range cfg.StyleKs {
		if k <= 0 {
			return fmt.Errorf("features: style model over the %d most unique words", k)
		}
	}
	if err := cfg.MR.Validate(); err != nil {
		return fmt.Errorf("features: %w", err)
	}
	return nil
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Topics:             8,
		LDAIterations:      60,
		MaxLDADocs:         4000,
		ScalesDays:         temporal.DefaultScalesDays,
		StyleKs:            []int{1, 3, 5},
		UniqueWordsPerUser: 5,
		MR:                 temporal.DefaultMultiResolutionConfig(),
		LocationSigmaKm:    5,
		Epsilon:            1e-3,
		Seed:               seed,
	}
}

// Pipeline is the trained feature extractor shared by HYDRA and the SVM-B
// baseline. Build it once per dataset with NewPipeline, then derive
// AccountViews and pair vectors.
type Pipeline struct {
	cfg        Config
	span       temporal.Range
	importance *attr.Importance
	faces      *vision.Matcher
	lda        *topic.LDA
	vocab      *text.Vocabulary
	genre      *topic.GenreModel
	sent       *topic.SentimentModel
	topicSim   temporal.Similarity
	sensors    []temporal.Sensor
	names      []string
	groups     []string
}

// Lexicons is the subset of synth lexicon data the pipeline needs. It is a
// local type so features does not depend on the generator package.
type Lexicons struct {
	Genre     map[string]string
	Sentiment map[string]topic.AVPoint
}

// NewPipeline trains the pipeline: attribute importance from the labeled
// pairs, LDA on the dataset's post corpus, and lexicon models from lx.
func NewPipeline(ds *platform.Dataset, labeled []attr.LabeledPair, lx Lexicons, cfg Config) (*Pipeline, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	imp, err := attr.LearnImportance(labeled, platform.MatchAttrs, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	gm, err := topic.NewGenreModel(lx.Genre)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:        cfg,
		span:       ds.Span,
		importance: imp,
		faces:      vision.NewMatcher(cfg.Seed),
		genre:      gm,
		sent:       topic.NewSentimentModel(lx.Sentiment),
		sensors:    pairSensors(cfg),
	}
	p.topicSim = topicSimFor(cfg)
	if err := p.trainLDA(ds); err != nil {
		return nil, err
	}
	p.buildNames()
	return p, nil
}

// pairSensors builds the multi-resolution sensor bank from the config —
// shared by the trained pipeline and the query-only restored one.
func pairSensors(cfg Config) []temporal.Sensor {
	return []temporal.Sensor{
		temporal.LocationSensor{SigmaKm: cfg.LocationSigmaKm},
		temporal.MediaSensor{},
	}
}

// topicSimFor selects the per-bucket distribution-similarity kernel.
func topicSimFor(cfg Config) temporal.Similarity {
	if cfg.UseHistogramIntersection {
		k := kernel.HistogramIntersection{}
		return func(a, b linalg.Vector) float64 { return k.Eval(a, b) }
	}
	k := kernel.NewChiSquare(1)
	return func(a, b linalg.Vector) float64 { return k.Eval(a, b) }
}

// trainLDA builds the vocabulary and topic model from the dataset corpus.
func (p *Pipeline) trainLDA(ds *platform.Dataset) error {
	p.vocab = text.NewVocabulary()
	var docs [][]int
	// Platforms in sorted order for determinism.
	ids := make([]platform.ID, 0, len(ds.Platforms))
	for id := range ds.Platforms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for _, acc := range ds.Platforms[id].Accounts {
			for _, post := range acc.Posts {
				toks := text.Tokenize(post.Text)
				docs = append(docs, p.vocab.AddDoc(toks))
			}
		}
	}
	if len(docs) == 0 {
		return fmt.Errorf("features: dataset has no posts to train LDA on")
	}
	train := docs
	if p.cfg.MaxLDADocs > 0 && len(docs) > p.cfg.MaxLDADocs {
		// Deterministic stride subsample.
		stride := len(docs) / p.cfg.MaxLDADocs
		train = train[:0:0]
		for i := 0; i < len(docs); i += stride {
			train = append(train, docs[i])
		}
	}
	lda, err := topic.TrainLDA(train, topic.LDAOpts{
		Topics:     p.cfg.Topics,
		VocabSize:  p.vocab.Size(),
		Iterations: p.cfg.LDAIterations,
		Seed:       p.cfg.Seed,
	})
	if err != nil {
		return err
	}
	p.lda = lda
	return nil
}

// buildNames constructs the feature-name table; len(names) is the feature
// dimension D.
func (p *Pipeline) buildNames() {
	add := func(group, name string) {
		p.groups = append(p.groups, group)
		p.names = append(p.names, name)
	}
	for _, a := range platform.MatchAttrs {
		add("attr", "attr:"+string(a))
	}
	add("face", "face")
	add("username", "username:jw")
	add("username", "username:overlap")
	for _, d := range p.cfg.ScalesDays {
		add("topic", fmt.Sprintf("topic:%dd", d))
	}
	for _, d := range p.cfg.ScalesDays {
		add("genre", fmt.Sprintf("genre:%dd", d))
	}
	for _, d := range p.cfg.ScalesDays {
		add("sentiment", fmt.Sprintf("sentiment:%dd", d))
	}
	for _, k := range p.cfg.StyleKs {
		add("style", fmt.Sprintf("style:k%d", k))
	}
	for _, s := range p.sensors {
		for _, w := range p.cfg.MR.WindowsDays {
			add("mr", fmt.Sprintf("mr:%s:%dd", s.Name(), w))
		}
	}
}

// Dim returns the feature dimension D.
func (p *Pipeline) Dim() int { return len(p.names) }

// FeatureGroups returns the group label of each feature dimension.
func (p *Pipeline) FeatureGroups() []string { return p.groups }

// AccountView is the per-account preprocessed state: per-post distributions,
// unique words, and the behavior embedding used by structure consistency.
//
// A view is immutable after construction (BuildView or RestoreView):
// views are shared by concurrent pair computations, and the first pair a
// view takes part in derives further state from its fields and caches it
// on the view, so a later write to any field — or to the events of Acc —
// would be both a data race and silently ignored. A view belongs to one
// pipeline: the derived state depends on that pipeline's span and
// scales, and pairing the view under a pipeline that differs in either
// rebuilds it.
type AccountView struct {
	Acc        *platform.Account
	PostTimes  []time.Time
	TopicDists []linalg.Vector
	GenreDists []linalg.Vector
	SentDists  []linalg.Vector
	// Unique are the account's most unique words, most-unique first.
	Unique []string
	// Embedding is the long-term behavior representation x_i of the user —
	// aggregated topic, genre and sentiment distributions — used by the
	// structure-consistency affinities (Eqn 9).
	Embedding linalg.Vector

	// derived is everything Pair needs that is a function of this account
	// alone, built on the first pair (see Pipeline.derive).
	derived atomic.Pointer[derivedState]
}

// derivedState is the per-account half of a pair vector: the steps of
// Figure 5 and Figure 6 that depend on one user only, and that Pair once
// redid for every partner. It is deliberately small — every account a
// server has paired keeps one — and immutable; it lives and dies with
// its view.
type derivedState struct {
	// pipe is the pipeline the state was built under; see reusableUnder.
	pipe *Pipeline
	// posts lays PostTimes out for bucketing at every scale.
	posts temporal.Timeline
	// events is Acc.Events as the sensors scan them.
	events temporal.Stream
}

// derive returns v's derived state under p, building it on first use and
// again if the view was last paired under a pipeline with another span or
// other scales. Concurrent first touches race benignly, as
// MappedBundle.View's do: the build is deterministic, every racer's
// result is interchangeable, and the CAS keeps one.
func (p *Pipeline) derive(v *AccountView) *derivedState {
	for {
		d := v.derived.Load()
		if d != nil && d.reusableUnder(p) {
			return d
		}
		fresh := &derivedState{
			pipe:   p,
			posts:  temporal.NewTimeline(p.span, p.cfg.ScalesDays, v.PostTimes),
			events: temporal.NewStream(v.Acc.Events),
		}
		if v.derived.CompareAndSwap(d, fresh) {
			return fresh
		}
	}
}

// reusableUnder reports whether p would derive the same state: the
// timeline depends on the span and the bucket scales, and nothing else in
// it on the pipeline. Two pipelines restored from one bundle — an engine's
// and a diagnostic tool's, say — therefore share their views' state.
func (d *derivedState) reusableUnder(p *Pipeline) bool {
	q := d.pipe
	return q == p || q.span.Start.Equal(p.span.Start) && q.span.End.Equal(p.span.End) &&
		slices.Equal(q.cfg.ScalesDays, p.cfg.ScalesDays)
}

// tokDoc is one tokenized post with its vocabulary ids.
type tokDoc struct {
	toks []string
	ids  []int
}

// BuildView preprocesses one account. It needs the view-construction
// models (LDA, vocabulary, lexicons), so it must not be called on a
// query-only pipeline restored via PipelineFromParts.
func (p *Pipeline) BuildView(acc *platform.Account) *AccountView {
	if p.lda == nil {
		panic("features: BuildView on a query-only pipeline (restored via PipelineFromParts); snapshot views instead")
	}
	v := &AccountView{Acc: acc}
	var docs []tokDoc
	for _, post := range acc.Posts {
		toks := text.Tokenize(post.Text)
		ids := make([]int, 0, len(toks))
		for _, tk := range toks {
			if id, ok := p.vocab.Lookup(tk); ok {
				ids = append(ids, id)
			}
		}
		docs = append(docs, tokDoc{toks: toks, ids: ids})
		v.PostTimes = append(v.PostTimes, post.Time)
	}
	for i, d := range docs {
		v.TopicDists = append(v.TopicDists, p.lda.Infer(d.ids, 15, p.cfg.Seed+int64(acc.Local)*31+int64(i)))
		v.GenreDists = append(v.GenreDists, p.genre.Classify(d.toks))
		v.SentDists = append(v.SentDists, p.sent.Classify(d.toks))
	}
	v.Unique = p.uniqueWords(docs)
	v.Embedding = p.embedding(v)
	return v
}

// uniqueWords ranks the account's tokens by ascending global corpus
// frequency (stop words removed) and returns the most unique ones.
func (p *Pipeline) uniqueWords(docs []tokDoc) []string {
	type cand struct {
		tok  string
		freq int
	}
	seen := make(map[string]bool)
	var cands []cand
	for _, d := range docs {
		for _, tk := range d.toks {
			if seen[tk] || text.IsStopword(tk) {
				continue
			}
			seen[tk] = true
			norm := text.Singularize(tk)
			id, ok := p.vocab.Lookup(tk)
			freq := 0
			if ok {
				freq = p.vocab.TermFreq(id)
			}
			cands = append(cands, cand{tok: norm, freq: freq})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].freq != cands[j].freq {
			return cands[i].freq < cands[j].freq
		}
		return cands[i].tok < cands[j].tok
	})
	k := p.cfg.UniqueWordsPerUser
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].tok
	}
	return out
}

// embedding aggregates the account's distributions into the long-term
// behavior representation.
func (p *Pipeline) embedding(v *AccountView) linalg.Vector {
	tk := meanDist(v.TopicDists, p.cfg.Topics)
	gn := meanDist(v.GenreDists, len(topic.Genres))
	st := meanDist(v.SentDists, len(topic.Sentiments))
	out := make(linalg.Vector, 0, len(tk)+len(gn)+len(st))
	out = append(out, tk...)
	out = append(out, gn...)
	out = append(out, st...)
	return out
}

func meanDist(dists []linalg.Vector, dim int) linalg.Vector {
	if len(dists) == 0 {
		return linalg.NewVector(dim).Fill(1 / float64(dim))
	}
	acc := linalg.NewVector(dim)
	for _, d := range dists {
		acc.AddScaled(1, d)
	}
	return acc.Scale(1 / float64(len(dists)))
}

// PairVector is one observation: the similarity vector and its mask.
type PairVector struct {
	X    linalg.Vector
	Mask []bool
}

// Pair computes the full heterogeneous similarity vector between two
// account views (accounts must be on different platforms; the method does
// not enforce it). It is PairInto with storage the caller owns.
func (p *Pipeline) Pair(a, b *AccountView) PairVector {
	pv := PairVector{X: linalg.NewVector(p.Dim()), Mask: make([]bool, p.Dim())}
	p.PairInto(a, b, pv.X, pv.Mask, nil)
	return pv
}

// PairInto writes the pair vector of a and b into x and mask, both of
// length Dim; whatever they held is overwritten. Everything that depends
// on one account only is read from the views' derived state, so once
// both views have been paired before, a call allocates nothing.
//
// want, when non-nil (length Dim), selects the dimensions to compute:
// the rest come back zero and unobserved, and a feature block none of
// whose dimensions is wanted is not computed at all — the attributes,
// the face match, the username and style terms, every bucket scale of
// Figure 5 and every search window of Figure 6. No dimension depends on
// another, so a wanted one carries the bits a full call gives it. nil
// wants every dimension.
func (p *Pipeline) PairInto(a, b *AccountView, x linalg.Vector, mask []bool, want []bool) {
	dim := p.Dim()
	if len(x) != dim || len(mask) != dim || want != nil && len(want) != dim {
		panic(fmt.Sprintf("features: PairInto into %d values, %d mask and %d want entries, pipeline has %d dims",
			len(x), len(mask), len(want), dim))
	}
	clear(x)
	clear(mask)
	idx := 0

	// 1. Attributes, as one block: cleared below where not wanted.
	n := len(p.importance.Attrs)
	if anyWanted(want, idx, idx+n) {
		p.importance.PairFeaturesInto(&a.Acc.Profile, &b.Acc.Profile, x, mask)
		for d := idx; d < idx+n; d++ {
			if !wanted(want, d) {
				x[d], mask[d] = 0, false
			}
		}
	}
	idx += n

	// 2. Face.
	if wanted(want, idx) {
		if score, ok := p.faces.Match(a.Acc.Profile.AvatarID, b.Acc.Profile.AvatarID); ok {
			x[idx] = score
			mask[idx] = true
		}
	}
	idx++

	// 3. Username similarity (always observed).
	ua, ub := a.Acc.Profile.Username, b.Acc.Profile.Username
	if wanted(want, idx) {
		x[idx] = text.JaroWinkler(ua, ub)
		mask[idx] = true
	}
	idx++
	if wanted(want, idx) {
		x[idx] = text.UsernameOverlap(ua, ub)
		mask[idx] = true
	}
	idx++

	// 4-6. Multi-scale distribution similarities. A family whose length
	// disagrees with PostTimes on either side comes back unobserved.
	famsA := [...][]linalg.Vector{a.TopicDists, a.GenreDists, a.SentDists}
	famsB := [...][]linalg.Vector{b.TopicDists, b.GenreDists, b.SentDists}
	n = len(famsA) * len(p.cfg.ScalesDays)
	if anyWanted(want, idx, idx+n) {
		da, db := p.derive(a), p.derive(b)
		da.posts.SimilarityInto(&db.posts, famsA[:], famsB[:], p.topicSim, x[idx:], mask[idx:], wantSlice(want, idx, idx+n))
	}
	idx += n

	// 7. Style: S_lea = #matched / k for k in StyleKs (Eqn 4). Missing when
	// either account has no unique words at all (no posts).
	for _, k := range p.cfg.StyleKs {
		if wanted(want, idx) && len(a.Unique) > 0 && len(b.Unique) > 0 {
			x[idx] = styleSim(a.Unique, b.Unique, k)
			mask[idx] = true
		}
		idx++
	}

	// 8. Multi-resolution behavior matching.
	n = len(p.sensors) * len(p.cfg.MR.WindowsDays)
	if anyWanted(want, idx, idx+n) {
		da, db := p.derive(a), p.derive(b)
		p.cfg.MR.MatchInto(p.sensors, da.events, db.events, x[idx:], mask[idx:], wantSlice(want, idx, idx+n))
	}
	idx += n

	if idx != dim {
		panic(fmt.Sprintf("features: assembled %d dims, expected %d", idx, dim))
	}
}

// wanted reports whether dimension d is selected by want (nil: all are).
func wanted(want []bool, d int) bool { return want == nil || want[d] }

// anyWanted reports whether any dimension in [lo, hi) is selected.
func anyWanted(want []bool, lo, hi int) bool {
	return want == nil || slices.Contains(want[lo:hi], true)
}

// wantSlice is want[lo:hi], nil when want is.
func wantSlice(want []bool, lo, hi int) []bool {
	if want == nil {
		return nil
	}
	return want[lo:hi]
}

// styleSim computes Eqn 4 over the k most unique words of each side: how
// many of B's are among A's, over k.
func styleSim(ua, ub []string, k int) float64 {
	ua, ub = ua[:min(k, len(ua))], ub[:min(k, len(ub))]
	matched := 0
	for _, w := range ub {
		if slices.Contains(ua, w) {
			matched++
		}
	}
	return float64(matched) / float64(k)
}
