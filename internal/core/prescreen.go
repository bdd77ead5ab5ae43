package core

// The approximate prescreen behind the two-tier top-k path. The exact
// decision function (Eqn 12) costs one RBF evaluation per support
// vector per candidate — the support-set floor no amount of batching
// breaks. The prescreen replaces that expansion with a single m-term
// feature fold f̃(x) = bias + Σ V_j·φ_j(x) fitted once at build time,
// over a reduced support expansion: φ_j(x) = K(c_j, x) with centers c_j
// the highest-|α| support vectors. The decision function literally
// lives in the span of such bumps, so 64 of them fit it tightly at the
// cost of one dim-length pass each.
//
// The approximation never decides anything. A top-k query only uses f̃
// to *skip* index-row candidates provably outside the running k-th best
// (f̃ < kth − ε ⇒ f < kth), and the survivors are rescored by the exact
// batched kernel, which alone produces output. So the margin only has to
// hold on the pairs a query can skip: the (a, c.B) pairs of the bundle's
// index rows. The packer hands BuildPrescreen exactly those pairs, and ε
// is the maximum |f − f̃| measured over all of them through the serving
// fold, nudged up one ulp — a certificate over every prunable pair, with
// no sample and no safety factor. A split bundle's shards own subsets of
// those rows, so the certificate holds per shard. Scores, rankings and
// tie-breaks therefore stay bit-identical to the exact-only engine by
// construction — see serve.Engine.TopKAppend and the TestPrescreen…
// oracles.

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"hydra/internal/kernel"
	"hydra/internal/linalg"
	"hydra/internal/parallel"
	"hydra/internal/platform"
)

// prescreenFeatures is the fold length m the packers build with: small
// enough that a prescreen score (m kernel bumps) stays far below the
// support-set cost it replaces, large enough that the empirical margin
// ε still prunes.
const prescreenFeatures = 64

// prescreenSeedMix offsets Config.Seed into the seed the v3 prescreen
// header records. Nothing draws from it any more (it seeded the retired
// Fourier block); it is still written so packed bundles keep their bytes.
const prescreenSeedMix = 0x5ca1ab1e

// prescreenRidge scales the ridge term of the collapsed-vector fit,
// relative to the features' weighted mean square (trace(ZᵀΩZ)/m).
const prescreenRidge = 1e-5

// prescreenIRLSRounds bounds the iteratively reweighted refits that
// push the fit from least-squares toward minimax: each round reweights
// every point by its squared residual, so the worst-fitted pairs — the
// ones that set ε — dominate the next solve. Plain least squares leaves
// ε 2–4× larger at the same feature count.
const prescreenIRLSRounds = 12

// prescreenIRLSFloor keeps perfectly-fitted points from dropping out of
// the reweighted solve entirely.
const prescreenIRLSFloor = 1e-3

// PrescreenParts is the serialized prescreen: everything a server needs
// to score approximately without paying the build (the centers, the
// fitted decision vector and the certified margin). It rides bundles
// as an optional section — absent parts mean exact-only serving.
type PrescreenParts struct {
	// Features is the fold length m (one reduced-set kernel bump per
	// row of C); Dim the input dimensionality each row spans.
	Features int `json:"features"`
	Dim      int `json:"dim"`
	// Seed is recorded in the bundle header and read by nothing; see
	// prescreenSeedMix.
	Seed int64 `json:"seed"`
	// C holds the Features×Dim reduced-set centers (row-major,
	// zero-padded rows of the model's highest-|α| support vectors) and
	// Sigma the RBF bandwidth their bumps are evaluated at.
	C     linalg.Vector `json:"c"`
	Sigma float64       `json:"sigma"`
	// V is the fitted decision vector:
	// f̃(x) = bias + Σ_j V[j]·exp(−‖C_j − x‖² / 2σ²).
	V linalg.Vector `json:"v"`
	// EpsRaw is the maximum |f − f̃| measured at build time over every
	// index-row pair the bundle's top-k can prune, and Eps, one ulp
	// above it, the certified margin queries prune with. Safety is
	// always 1: the v3 header still records the factor that once
	// inflated a sampled maximum.
	EpsRaw float64 `json:"eps_raw"`
	Safety float64 `json:"safety"`
	Eps    float64 `json:"eps"`
}

// Validate checks the parts' internal consistency (shape and margin).
func (p *PrescreenParts) Validate() error {
	if p.Features <= 0 || p.Dim <= 0 {
		return fmt.Errorf("core: prescreen parts need positive shape, got %d features over dim %d", p.Features, p.Dim)
	}
	if len(p.C) != p.Features*p.Dim {
		return fmt.Errorf("core: prescreen centers have %d entries, want %d×%d", len(p.C), p.Features, p.Dim)
	}
	if math.IsNaN(p.Sigma) || p.Sigma <= 0 {
		return fmt.Errorf("core: prescreen reduced-set bandwidth σ=%g is not usable", p.Sigma)
	}
	if len(p.V) != p.Features {
		return fmt.Errorf("core: prescreen has %d fitted weights for %d features", len(p.V), p.Features)
	}
	if math.IsNaN(p.Eps) || p.Eps < 0 {
		return fmt.Errorf("core: prescreen margin ε=%g is not a valid bound", p.Eps)
	}
	if p.Eps < p.EpsRaw {
		return fmt.Errorf("core: prescreen margin ε=%g below the measured error %g — pruning would not be certified", p.Eps, p.EpsRaw)
	}
	return nil
}

// PrescreenOpts tunes BuildPrescreen.
type PrescreenOpts struct {
	// Workers sizes the build's worker pool (≤ 0 = all cores); the parts
	// are bit-identical at any setting.
	Workers int
	// Queries is the certification set: the query-time imputed vector
	// (see Model.ImputedPairRows) of every pair the two-tier top-k can
	// prune — every (a, c.B) of every index row the bundle serves. They
	// join the training candidates in the fit, since arbitrary pairs
	// impute into regions no labeled candidate occupies, and they alone
	// set EpsRaw: a pair outside them is never pruned, so its error
	// bounds nothing. An empty set is refused.
	Queries []linalg.Vector
}

// BuildPrescreen builds the approximate prescreen for a trained RBF
// model from its serialized parts: it takes the highest-|α| support
// vectors as reduced-set centers, fits the decision vector by
// iteratively reweighted ridge regression over every training candidate
// and every certified pair, and certifies the margin ε over the certified
// pairs (opts.Queries). The build is a pure function of (parts, opts) —
// packing the same model twice yields byte-identical prescreen
// sections. Non-RBF models have no bandwidthed bumps; they serve
// exact-only.
func BuildPrescreen(p ModelParts, opts PrescreenOpts) (*PrescreenParts, error) {
	if p.KernelKind != KernelRBF {
		return nil, fmt.Errorf("core: prescreen needs an RBF model, got kernel %q", p.KernelKind)
	}
	if p.KernelSigma <= 0 {
		return nil, fmt.Errorf("core: prescreen needs a positive bandwidth, got %g", p.KernelSigma)
	}
	if len(p.Xs) == 0 || len(p.Alpha) != len(p.Xs) {
		return nil, fmt.Errorf("core: prescreen got %d duals for %d candidate vectors", len(p.Alpha), len(p.Xs))
	}
	if len(opts.Queries) == 0 {
		return nil, fmt.Errorf("core: prescreen has no index pairs to certify")
	}
	// The point set the fit runs over: every training candidate, then
	// every certified pair, which starts at pts[len(p.Xs)].
	pts := make([]linalg.Vector, 0, len(p.Xs)+len(opts.Queries))
	pts = append(pts, p.Xs...)
	pts = append(pts, opts.Queries...)
	dim := 0
	for _, x := range pts {
		if len(x) > dim {
			dim = len(x)
		}
	}

	// Reduced-set centers: the highest-|α| support vectors, zero-padded
	// to dim. |α| ranks how much of the decision surface each support
	// vector carries; ties break on candidate index so the build stays
	// a pure function of (parts, opts).
	type ranked struct {
		idx int
		mag float64
	}
	var sv []ranked
	for j, a := range p.Alpha {
		if a != 0 {
			sv = append(sv, ranked{j, math.Abs(a)})
		}
	}
	sort.Slice(sv, func(i, j int) bool {
		if sv[i].mag != sv[j].mag {
			return sv[i].mag > sv[j].mag
		}
		return sv[i].idx < sv[j].idx
	})
	// Fewer support vectors than bumps: shrink the fold rather than
	// duplicating centers into a singular fit.
	m := min(prescreenFeatures, len(sv))
	centers := make(linalg.Vector, m*dim)
	for i := 0; i < m; i++ {
		copy(centers[i*dim:(i+1)*dim], p.Xs[sv[i].idx])
	}

	out := PrescreenParts{
		Features: m, Dim: dim, Seed: p.Cfg.Seed + prescreenSeedMix,
		C: centers, Sigma: p.KernelSigma,
		Safety: 1,
	}
	sigma2 := 2 * p.KernelSigma * p.KernelSigma
	// Every per-point loop below writes only its own points' slots, and
	// every sum runs over the points in ascending order on one goroutine,
	// so the parts are bit-identical at any worker count.
	workers := opts.Workers
	// Exact decision values at every point, from the exact fold
	// (foldKernel) itself, so the certification below measures the gap
	// against the value a query will actually compare with. Minus bias
	// they double as the regression targets.
	exact := &Model{kern: kernel.NewRBF(p.KernelSigma), xs: p.Xs, alpha: p.Alpha, bias: p.Bias}
	exact.compactSupport()
	y := make([]float64, len(pts))
	forPoints(workers, len(pts), func(lo, hi int) {
		sc := exact.getScratch()
		exact.foldKernel(sc, pts[lo:hi], 1, y[lo:hi])
		exact.scratch.Put(sc)
	})
	// Feature rows, computed once through the same SqDist/Exp the query
	// fold runs, so the fit lives in exactly the query's float space.
	feats := make([]float64, len(pts)*m)
	forPoints(workers, len(pts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			z := feats[i*m : (i+1)*m]
			for j := 0; j < m; j++ {
				z[j] = math.Exp(-linalg.SqDist(centers[j*dim:(j+1)*dim], pts[i]) / sigma2)
			}
		}
	})
	// Iteratively reweighted ridge solves of ΩZ·V ≈ Ω(y − bias): the
	// first round is plain least squares; each following round weights
	// every point by its squared residual, so the solve concentrates on
	// the worst-fitted pairs — ε is a max, not an average, and minimax
	// pressure is what shrinks it. All sums run in ascending point
	// order and the normal equations are solved by Cholesky, so the
	// build stays deterministic. The Gram triangle is accumulated in row
	// bands of equal area, one band per worker: a band owns its rows of
	// the Gram matrix and of the right-hand side outright.
	weight := make([]float64, len(pts))
	for i := range weight {
		weight[i] = 1
	}
	bands := triangleBands(m, parallel.Workers(workers))
	gram := linalg.NewMatrix(m, m)
	for round := 0; round < prescreenIRLSRounds; round++ {
		for i := range gram.Data {
			gram.Data[i] = 0
		}
		rhs := linalg.NewVector(m)
		parallel.For(workers, len(bands)-1, func(k int) {
			lo, hi := bands[k], bands[k+1]
			// A band-local right-hand side keeps the bands off each
			// other's cache lines; each entry is the same ascending sum.
			acc := make([]float64, hi-lo)
			for i := range pts {
				z := feats[i*m : (i+1)*m]
				wi := weight[i]
				for r := lo; r < hi; r++ {
					zr := z[r]
					acc[r-lo] += wi * zr * (y[i] - p.Bias)
					row := gram.Row(r)
					for c := 0; c <= r; c++ {
						row[c] += wi * zr * z[c]
					}
				}
			}
			copy(rhs[lo:hi], acc)
		})
		trace := 0.0
		for i := range pts {
			z := feats[i*m : (i+1)*m]
			wi := weight[i]
			for r := 0; r < m; r++ {
				zr := z[r]
				trace += wi * zr * zr
			}
		}
		for r := 0; r < m; r++ {
			for c := r + 1; c < m; c++ {
				gram.Set(r, c, gram.At(c, r))
			}
		}
		gram.AddDiag(prescreenRidge * trace / float64(m))
		chol, err := gram.Cholesky(1e-12)
		if err != nil {
			return nil, fmt.Errorf("core: prescreen ridge solve: %w", err)
		}
		v := linalg.SolveCholesky(chol, rhs)
		out.V = v
		forPoints(workers, len(pts), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z := feats[i*m : (i+1)*m]
				s := 0.0
				for r := 0; r < m; r++ {
					s += v[r] * z[r]
				}
				res := math.Abs(y[i]-p.Bias-s) + prescreenIRLSFloor
				weight[i] = res * res
			}
		})
	}

	// Certify the margin over every certified pair by literally running
	// the query fold (not the cached feature rows — any divergence
	// between the two would void the bound, so the measurement uses the
	// serving code path). ε is the worst observed gap nudged up one ulp,
	// so the bound stays on the safe side of the last rounding.
	ps := newPrescreenState(&out)
	nx := len(p.Xs)
	gaps := make([]float64, len(pts)-nx)
	forPoints(workers, len(gaps), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			gaps[i] = math.Abs(y[nx+i] - ps.score(pts[nx+i], p.Bias))
		}
	})
	out.EpsRaw = slices.Max(gaps)
	out.Eps = math.Nextafter(out.EpsRaw, math.Inf(1))
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// prescreenPointChunk is how many points one task of the build's
// per-point loops covers: enough to amortize the hand-out, few enough to
// balance the pool.
const prescreenPointChunk = 64

// forPoints runs fn over [0, n) in contiguous chunks on the worker pool.
func forPoints(workers, n int, fn func(lo, hi int)) {
	parallel.For(workers, (n+prescreenPointChunk-1)/prescreenPointChunk, func(c int) {
		lo := c * prescreenPointChunk
		fn(lo, min(lo+prescreenPointChunk, n))
	})
}

// triangleBands splits the rows of an m×m lower triangle (row r holds
// r+1 cells) into at most parts contiguous bands of about equal area. It
// returns the band boundaries: band k covers rows [b[k], b[k+1]).
func triangleBands(m, parts int) []int {
	bounds := []int{0}
	total := m * (m + 1) / 2
	r, cells := 0, 0
	for k := 1; k < parts; k++ {
		for target := total * k / parts; r < m && cells+r+1 <= target; r++ {
			cells += r + 1
		}
		if r > bounds[len(bounds)-1] {
			bounds = append(bounds, r)
		}
	}
	if m > bounds[len(bounds)-1] {
		bounds = append(bounds, m)
	}
	return bounds
}

// foldCacheEntries bounds the per-model fold memo: at ~50 bytes per
// entry the cap keeps a long-lived server under ~16 MB of memoized fold
// values even across an adversarial sweep of the full pair space.
const foldCacheEntries = 1 << 18

// PrescreenFoldStats reports the fold memo's hit/miss counters and
// current size (all zero without a prescreen) — prescreen health for
// /healthz and /metrics.
func (m *Model) PrescreenFoldStats() (hits, misses uint64, size int) {
	if m.pre == nil {
		return 0, 0, 0
	}
	h, mi, _ := m.pre.cache.stats()
	return h, mi, m.pre.cache.size()
}

// prescreenState is the query-time form of PrescreenParts: plain slices
// the hot fold walks without re-validating shapes.
type prescreenState struct {
	parts  *PrescreenParts
	dim    int
	c, v   []float64
	sigma2 float64
	eps    float64
	// cache is the fold memo: the certified fold value f̃ per account
	// pair. For a served model the fold is a pure function of the pair —
	// the source views are immutable and the prescreen is fixed at
	// SetPrescreen — so a memoized value IS the bits a fresh fold would
	// produce, and eviction only ever costs a recompute. Profiling after
	// the pack-time impute table landed showed the fold itself (one exp +
	// full-dim SqDist per bump per candidate, every candidate, every
	// query) as the next top-k floor; the memo collapses a warm query's
	// tier-1 pass to one map hit per candidate, so only the candidates
	// that reach the exact rescore are imputed. Its counters count
	// PrescreenMemoInto lookups since the prescreen was attached.
	cache pairMemo[float64]
}

func newPrescreenState(p *PrescreenParts) *prescreenState {
	ps := &prescreenState{
		parts: p, dim: p.Dim, c: p.C, v: p.V,
		sigma2: 2 * p.Sigma * p.Sigma, eps: p.Eps,
	}
	ps.cache.cap = foldCacheEntries
	return ps
}

// score evaluates the fold f̃(x) = bias + Σ v_j·exp(−‖c_j − x‖²/2σ²)
// with the identical float sequence (linalg.SqDist) the build's
// certification ran, in the same accumulation order — the measured ε is
// only valid because of that.
func (ps *prescreenState) score(x linalg.Vector, bias float64) float64 {
	s := bias
	d := ps.dim
	for j, v := range ps.v {
		s += v * math.Exp(-linalg.SqDist(ps.c[j*d:(j+1)*d], x)/ps.sigma2)
	}
	return s
}

// foldInto writes the prescreen fold of rows[i] to out[i] — the one
// prescreen fold, shared by PrescreenMemoInto (over its memo misses) and
// PrescreenBatchInto (over every row). Each slot is a pure function of
// its own row, so the values are bit-identical at any worker count.
func (ps *prescreenState) foldInto(out []float64, rows []linalg.Vector, bias float64, workers int) {
	if parallel.Workers(workers) == 1 || len(rows) <= 1 {
		for i, x := range rows {
			out[i] = ps.score(x, bias)
		}
		return
	}
	parallel.For(workers, len(rows), func(i int) {
		out[i] = ps.score(rows[i], bias)
	})
}

// SetPrescreen attaches validated prescreen parts to the model (the
// bundle restore path). The parts must span at least the model's
// feature dimensionality; a narrower projection would silently ignore
// trailing features and void the certified margin.
func (m *Model) SetPrescreen(p *PrescreenParts) error {
	if p == nil {
		m.pre = nil
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if m.svMat != nil && m.svMat.Cols > p.Dim {
		return fmt.Errorf("core: prescreen spans dim %d but the model's features span %d — rebuild the prescreen", p.Dim, m.svMat.Cols)
	}
	m.pre = newPrescreenState(p)
	return nil
}

// HasPrescreen reports whether an approximate prescreen is attached.
func (m *Model) HasPrescreen() bool { return m.pre != nil }

// Prescreen returns the attached prescreen parts (nil when exact-only).
// Callers must treat them as read-only.
func (m *Model) Prescreen() *PrescreenParts {
	if m.pre == nil {
		return nil
	}
	return m.pre.parts
}

// PrescreenEps returns the certified pruning margin ε (0 without a
// prescreen — but callers gate on HasPrescreen, not on ε).
func (m *Model) PrescreenEps() float64 {
	if m.pre == nil {
		return 0
	}
	return m.pre.eps
}

// ImputedPairRows returns one copy of the imputed feature vector per
// account pair — exactly the x every scoring path (exact batch, single
// pair, prescreen fold) evaluates for that pair. The packer imputes
// every index-row pair through this to fit and certify the prescreen
// over the pairs a top-k can prune instead of only the training
// candidates. Imputation is a pure per-pair function, so the rows are
// bit-identical at any worker count.
func (m *Model) ImputedPairRows(pa platform.ID, pb platform.ID, pairs [][2]int, workers int) ([]linalg.Vector, error) {
	n := len(pairs)
	if n == 0 {
		return nil, nil
	}
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	rows := sc.ensureRows(n)
	if err := m.impute(sc, rows, pa, pb, pairs, workers); err != nil {
		return nil, err
	}
	out := make([]linalg.Vector, n)
	for i, r := range rows {
		out[i] = append(linalg.Vector(nil), r...)
	}
	return out, nil
}

// PrescreenBatchInto computes approximate scores f̃ for a batch of
// account pairs into out, on the same pooled impute path as
// ScoreBatchInto — zero steady-state allocations. Each slot is a pure
// per-pair function, so the values are bit-identical at any worker
// count; they are bounded by |f − f̃| ≤ ε only in the certified sense
// and MUST NOT be served — they exist to order and prune candidates
// ahead of the exact rescore.
func (m *Model) PrescreenBatchInto(pa platform.ID, pb platform.ID, pairs [][2]int, workers int, out []float64) error {
	if m.pre == nil {
		return fmt.Errorf("core: model has no prescreen attached")
	}
	if len(out) != len(pairs) {
		return fmt.Errorf("core: PrescreenBatchInto got %d output slots for %d pairs", len(out), len(pairs))
	}
	n := len(pairs)
	if n == 0 {
		return nil
	}
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	rows := sc.ensureRows(n)
	if err := m.impute(sc, rows, pa, pb, pairs, workers); err != nil {
		return err
	}
	m.pre.foldInto(out, rows, m.bias, workers)
	return nil
}

// PrescreenMemoInto is PrescreenBatchInto through the fold memo, the
// serving top-k's tier-1 pass: a pair whose f̃ is memoized is answered
// from the memo without imputing, and only the misses are imputed,
// folded and stored. A memoized value is the bits a fresh fold produces,
// so out equals PrescreenBatchInto's at any worker count, cap and
// eviction order.
func (m *Model) PrescreenMemoInto(pa platform.ID, pb platform.ID, pairs [][2]int, workers int, out []float64) error {
	if m.pre == nil {
		return fmt.Errorf("core: model has no prescreen attached")
	}
	if len(out) != len(pairs) {
		return fmt.Errorf("core: PrescreenMemoInto got %d output slots for %d pairs", len(out), len(pairs))
	}
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	fc := &m.pre.cache
	miss, mp := sc.miss[:0], sc.mpairs[:0]
	fc.mu.Lock()
	for i, p := range pairs {
		if v, hit := fc.m[pairKey{pa, pb, p[0], p[1]}]; hit {
			out[i] = v
		} else {
			miss, mp = append(miss, i), append(mp, p)
		}
	}
	fc.mu.Unlock()
	sc.miss, sc.mpairs = miss, mp
	fc.hits.Add(uint64(len(pairs) - len(miss)))
	fc.misses.Add(uint64(len(miss)))
	if len(miss) == 0 {
		return nil
	}
	rows := sc.ensureRows(len(miss))
	if err := m.impute(sc, rows, pa, pb, mp, workers); err != nil {
		return err
	}
	mpre := grow(&sc.mpre, len(miss))
	m.pre.foldInto(mpre, rows, m.bias, workers)
	fc.mu.Lock()
	if fc.m == nil {
		fc.m = make(map[pairKey]float64, 1024)
	}
	fc.evictLocked(len(miss))
	for j, i := range miss {
		out[i] = mpre[j]
		fc.m[pairKey{pa, pb, mp[j][0], mp[j][1]}] = mpre[j]
	}
	fc.mu.Unlock()
	return nil
}
