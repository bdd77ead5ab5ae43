package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"hydra/internal/blocking"
	"hydra/internal/kernel"
	"hydra/internal/linalg"
	"hydra/internal/moo"
	"hydra/internal/platform"
	"hydra/internal/qp"
	"hydra/internal/structure"
)

// Config holds HYDRA's model parameters (the γ_L, γ_M, p, σ_S, σ_D inputs
// of Algorithm 1).
type Config struct {
	// GammaL weighs the supervised structured loss F_D.
	GammaL float64
	// GammaM weighs the structure-consistency objectives F_S.
	GammaM float64
	// P is the exponent of the weighted exponential-sum utility (Eqn 11).
	P float64
	// Sigma1/Sigma2 are the Eqn 9 bandwidths; MaxHops caps the n-hop
	// distance search of the structure graph.
	Sigma1, Sigma2 float64
	MaxHops        int
	// KernelSigma is the RBF bandwidth of the dual kernel K. Zero selects
	// the median heuristic.
	KernelSigma float64
	// Variant is HydraM or HydraZ.
	Variant Variant
	// TopFriends is the core-structure size for imputation (paper: 3).
	TopFriends int
	// ReweightIters bounds the iterative reweighting rounds used for p>1.
	ReweightIters int
	// Tol is the SMO tolerance.
	Tol  float64
	Seed int64
	// Workers pins the parallelism of the pairwise hot paths (feature
	// assembly, Gram construction, evaluation). ≤ 0 uses all cores;
	// Workers: 1 reproduces the sequential results bit-for-bit (as does
	// any other setting — all parallel paths are deterministic).
	Workers int
}

// DefaultTopFriends is the paper's core-structure size: Eqn 18 averages
// over the top-3 most-interacting friends on each side. Config.TopFriends
// ≤ 0 resolves to this everywhere (imputation and bundle packing share
// the constant, so a packed friend depth always covers serving).
const DefaultTopFriends = 3

// ResolvedTopFriends returns the imputation depth Score will actually
// use: TopFriends when positive, DefaultTopFriends otherwise.
func (c Config) ResolvedTopFriends() int {
	if c.TopFriends > 0 {
		return c.TopFriends
	}
	return DefaultTopFriends
}

// DefaultConfig returns the calibrated parameters (the values a grid search
// over the validation set selects in the paper's Section 7.1).
func DefaultConfig(seed int64) Config {
	return Config{
		GammaL:        1e-3,
		GammaM:        30,
		P:             1,
		Sigma1:        0.1,
		Sigma2:        6,
		MaxHops:       2,
		Variant:       HydraM,
		TopFriends:    3,
		ReweightIters: 3,
		Tol:           1e-3,
		Seed:          seed,
	}
}

// Block is one platform pair's slice of the multi-platform SIL problem:
// its candidate pairs and the labeled subset. The multi-platform M of Eqn
// 14 is block-diagonal over these.
type Block struct {
	PA, PB platform.ID
	Cands  []blocking.Candidate
	// Labels maps candidate index -> ±1 for the labeled subset
	// (ground-truth linked pairs and rule-based pre-matched pairs).
	Labels map[int]float64
}

// Task is the full training task across one or more platform pairs.
type Task struct {
	Blocks []*Block
}

// NumCandidates returns the total candidate count n = |P_l ∪ P_u|.
func (t *Task) NumCandidates() int {
	n := 0
	for _, b := range t.Blocks {
		n += len(b.Cands)
	}
	return n
}

// NumLabeled returns the labeled-pair count N_l.
func (t *Task) NumLabeled() int {
	n := 0
	for _, b := range t.Blocks {
		n += len(b.Labels)
	}
	return n
}

// Diagnostics reports training internals for the experiments.
type Diagnostics struct {
	N, NL        int
	SMOIters     int
	NnzBeta      int
	MDensity     float64
	FD, FS       float64
	EffGammaM    float64
	ReweightDone int
	// LKProducts counts the n×n×n products L·K computed while training.
	// The reweight rounds share one hoisted product (only the scalar
	// 2γ_M/n² and the diagonal shift change between rounds), so this is 1
	// no matter how many rounds ran.
	LKProducts int
}

// Model is a trained HYDRA linkage function (Eqn 12): the kernel expansion
// over all candidate pairs.
type Model struct {
	// store answers the feature queries scoring needs — the training
	// System's store when the model was just trained, a bundle's when it
	// was restored for serving; one store type, so scores are
	// bit-identical either way. The pack-time impute table and its
	// off-switch live there too.
	store *LazyStore
	cfg   Config
	kern  kernel.Func
	xs    []linalg.Vector
	alpha linalg.Vector
	bias  float64
	Diag  Diagnostics

	// Serving fast path, prepared once by compactSupport (see batch.go):
	// the α≠0 support set packed into one dense row-major matrix (svXs
	// are row views into svMat, svAlpha the matching coefficients), and
	// the pooled per-query scratch.
	svMat   *linalg.Matrix
	svXs    []linalg.Vector
	svAlpha []float64
	scratch sync.Pool

	// pre is the optional approximate prescreen (see prescreen.go):
	// attached from a bundle's prescreen section via SetPrescreen, nil
	// for exact-only serving. It never changes a served value — top-k
	// uses it to skip candidates provably outside the top k, and the
	// exact path rescores everything else.
	pre *prescreenState
}

// Train runs Algorithm 1 on the task. For p=1 this is the exact convex
// dual (Eqns 13–17); for p>1 it iteratively reweights γ_M following the
// first-order reduction of the exponential-sum utility (see internal/moo).
func Train(sys *System, task *Task, cfg Config) (*Model, error) {
	if len(task.Blocks) == 0 {
		return nil, fmt.Errorf("core: task has no blocks")
	}
	if cfg.GammaL <= 0 {
		return nil, fmt.Errorf("core: GammaL must be positive, got %g", cfg.GammaL)
	}
	if cfg.GammaM < 0 {
		return nil, fmt.Errorf("core: GammaM must be non-negative, got %g", cfg.GammaM)
	}
	if cfg.P < 1 {
		return nil, fmt.Errorf("core: P must be ≥ 1, got %g", cfg.P)
	}
	n := task.NumCandidates()
	nl := task.NumLabeled()
	if n == 0 {
		return nil, fmt.Errorf("core: no candidate pairs")
	}
	if nl == 0 {
		return nil, fmt.Errorf("core: no labeled pairs; F_D is undefined")
	}

	// 1. Impute the feature vectors, each block's candidates as one
	// planned batch (bit-identical at any worker count), and label
	// bookkeeping (sequential, order-dependent).
	xs := make([]linalg.Vector, 0, n)
	var pl imputePlan
	for _, b := range task.Blocks {
		pairs := make([][2]int, len(b.Cands))
		for i, c := range b.Cands {
			pairs[i] = [2]int{c.A, c.B}
		}
		rows, err := sys.imputePairs(&pl, b.PA, b.PB, pairs, cfg.Variant, cfg.TopFriends, cfg.Workers)
		if err != nil {
			return nil, err
		}
		xs = append(xs, rows...)
	}
	var labeledIdx []int
	var labels []float64
	offset := 0
	for _, b := range task.Blocks {
		for ci := range b.Cands {
			if y, ok := b.Labels[ci]; ok {
				if y != 1 && y != -1 {
					return nil, fmt.Errorf("core: label %g on block %s/%s candidate %d, want ±1", y, b.PA, b.PB, ci)
				}
				labeledIdx = append(labeledIdx, offset+ci)
				labels = append(labels, y)
			}
		}
		offset += len(b.Cands)
	}
	pos, neg := 0, 0
	for _, y := range labels {
		if y > 0 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("core: need labeled pairs of both classes (got %d positive, %d negative)", pos, neg)
	}

	// 2. Structure-consistency Laplacian, block-diagonal over platform
	// pairs (Eqn 14).
	lap := linalg.NewMatrix(n, n)
	offset = 0
	density := 0.0
	for _, b := range task.Blocks {
		embA, err := sys.Embeddings(b.PA)
		if err != nil {
			return nil, err
		}
		embB, err := sys.Embeddings(b.PB)
		if err != nil {
			return nil, err
		}
		platA, _ := sys.DS.Platform(b.PA)
		platB, _ := sys.DS.Platform(b.PB)
		scands := make([]structure.Candidate, len(b.Cands))
		for i, c := range b.Cands {
			scands[i] = structure.Candidate{A: c.A, B: c.B}
		}
		m, err := structure.Build(scands, embA, embB, platA.Graph, platB.Graph, structure.Config{
			Sigma1: cfg.Sigma1, Sigma2: cfg.Sigma2, MaxHops: cfg.MaxHops,
		})
		if err != nil {
			return nil, err
		}
		density += m.Density() * float64(len(b.Cands)) / float64(n)
		lb := structure.Laplacian(m)
		for i := 0; i < lb.Rows; i++ {
			for j := 0; j < lb.Cols; j++ {
				if v := lb.At(i, j); v != 0 {
					lap.Set(offset+i, offset+j, v)
				}
			}
		}
		offset += len(b.Cands)
	}

	// 3. Kernel matrix.
	kern := pickKernel(cfg, xs)
	gram := kernel.GramWorkers(kern, xs, cfg.Workers)

	m := &Model{store: sys.LazyStore, cfg: cfg, kern: kern, xs: xs}
	m.Diag.N, m.Diag.NL = n, nl
	m.Diag.MDensity = density

	// 4. Solve; for p>1 iterate the reweighted scalarization.
	//
	// The n×n×n product L·K is hoisted out of the reweight loop: A of Eqn
	// 15 is 2γ_L·I + (2γ_M/n²)·L·K, and across rounds only the scalar and
	// the diagonal shift change. Each round rebuilds A from this one
	// product by scale+AddDiag — the same float ops per entry as
	// recomputing, hence bit-identical, minus rounds−1 full multiplies.
	lk := lap.MulWorkers(gram, cfg.Workers)
	m.Diag.LKProducts++
	effGammaM := cfg.GammaM
	rounds := 1
	if cfg.P > 1 {
		rounds = cfg.ReweightIters
		if rounds < 1 {
			rounds = 3
		}
	}
	var warm []float64
	for round := 0; round < rounds; round++ {
		beta, err := m.solveOnce(gram, lk, labeledIdx, labels, effGammaM, warm)
		if err != nil {
			return nil, err
		}
		warm = beta // β_t warm-starts β_{t+1} (Section 7.5)
		m.Diag.ReweightDone = round + 1
		m.Diag.EffGammaM = effGammaM
		if cfg.P <= 1 || round == rounds-1 {
			break
		}
		// Evaluate the two objectives at the current solution and
		// re-linearize the p-power utility.
		fd, fs := m.objectives(gram, lap, labeledIdx, labels)
		m.Diag.FD, m.Diag.FS = fd, fs
		eff, err := moo.EffectiveWeights([]float64{1, cfg.GammaM}, []float64{math.Max(fd, 1e-9), math.Max(fs, 1e-9)}, cfg.P)
		if err != nil {
			return nil, err
		}
		effGammaM = eff[1]
	}
	fd, fs := m.objectives(gram, lap, labeledIdx, labels)
	m.Diag.FD, m.Diag.FS = fd, fs
	m.compactSupport()
	return m, nil
}

// solveOnce performs one p=1 dual solve with the given structure weight and
// returns the dual variables β for warm starting the next round. lk is the
// hoisted product L·K shared by every round (see train); all dense kernels
// run at cfg.Workers, which never changes the bits of the result.
func (m *Model) solveOnce(gram, lk *linalg.Matrix, labeledIdx []int, labels []float64, gammaM float64, warm []float64) ([]float64, error) {
	n := gram.Rows
	nl := len(labeledIdx)
	cfg := m.cfg

	// A = 2γ_L I + (2γ_M / n²) L K   (Eqn 15's inverse operand).
	scale := 2 * gammaM / float64(n*n)
	a := lk.Clone().ScaleInPlace(scale).AddDiag(2 * cfg.GammaL)
	lu, err := linalg.FactorizeInPlaceWorkers(a, cfg.Workers) // a is scratch; factor it in place
	if err != nil {
		return nil, fmt.Errorf("core: dual system factorization: %w", err)
	}
	// Z = A⁻¹ Jᵀ Y (n × N_l).
	jy := linalg.NewMatrix(n, nl)
	for c, idx := range labeledIdx {
		jy.Set(idx, c, labels[c])
	}
	z := lu.SolveMatrixWorkers(jy, cfg.Workers)
	// Q = Y J K Z (N_l × N_l, Eqn 17).
	kz := gram.MulWorkers(z, cfg.Workers)
	qm := linalg.NewMatrix(nl, nl)
	for r, idx := range labeledIdx {
		for c := 0; c < nl; c++ {
			qm.Set(r, c, labels[r]*kz.At(idx, c))
		}
	}
	// Symmetrize against numerical drift.
	for r := 0; r < nl; r++ {
		for c := r + 1; c < nl; c++ {
			v := (qm.At(r, c) + qm.At(c, r)) / 2
			qm.Set(r, c, v)
			qm.Set(c, r, v)
		}
	}

	// Box bound C = 1/|P_l| (Eqn 16).
	cBox := 1 / float64(nl)
	res, err := qp.Solve(denseAdapter{qm}, labels, cBox, qp.Opts{Tol: cfg.Tol, Shrink: true, WarmStart: warm})
	if err != nil {
		return nil, fmt.Errorf("core: SMO: %w", err)
	}
	m.Diag.SMOIters += res.Iters
	m.Diag.NnzBeta = 0
	for _, b := range res.Beta {
		if b > 1e-10 {
			m.Diag.NnzBeta++
		}
	}
	// α = Z β (Eqn 15).
	m.alpha = z.MulVecWorkers(linalg.Vector(res.Beta), cfg.Workers)
	// Bias from free dual variables: y_i = f(x_i) on the margin.
	m.bias = 0
	free := 0
	var acc float64
	ka := gram.MulVecWorkers(m.alpha, cfg.Workers)
	for c, idx := range labeledIdx {
		if res.Beta[c] > 1e-8 && res.Beta[c] < cBox-1e-8 {
			acc += labels[c] - ka[idx]
			free++
		}
	}
	if free > 0 {
		m.bias = acc / float64(free)
	} else {
		// Fall back to the class-balanced midpoint over labeled pairs.
		var lo, hi float64
		lo, hi = math.Inf(1), math.Inf(-1)
		for c, idx := range labeledIdx {
			v := ka[idx]
			if labels[c] > 0 && v < lo {
				lo = v
			}
			if labels[c] < 0 && v > hi {
				hi = v
			}
		}
		if !math.IsInf(lo, 1) && !math.IsInf(hi, -1) {
			m.bias = -(lo + hi) / 2
		}
	}
	return res.Beta, nil
}

// objectives evaluates F_D (structured loss) and F_S (structure
// consistency, Eqn 8) at the current α.
func (m *Model) objectives(gram, lap *linalg.Matrix, labeledIdx []int, labels []float64) (fd, fs float64) {
	n := gram.Rows
	ka := gram.MulVecWorkers(m.alpha, m.cfg.Workers) // f(x_i) − b over all candidates
	// F_D = γ_L/2 ‖w‖² + Σ ξ, with ‖w‖² = αᵀKα.
	wNorm2 := m.alpha.Dot(ka)
	fd = m.cfg.GammaL / 2 * wNorm2
	for c, idx := range labeledIdx {
		margin := labels[c] * (ka[idx] + m.bias)
		if margin < 1 {
			fd += 1 - margin
		}
	}
	// F_S = (1/n²)·fᵀ L f with f = Kα (Eqn 8's wᵀXᵀ(D−M)Xw in the dual).
	fs = ka.Dot(lap.MulVecWorkers(ka, m.cfg.Workers)) / float64(n*n)
	if fs < 0 {
		fs = 0 // PSD up to numerical noise
	}
	return fd, fs
}

// denseAdapter exposes a linalg.Matrix as a qp.Matrix.
type denseAdapter struct{ m *linalg.Matrix }

func (d denseAdapter) At(i, j int) float64 { return d.m.At(i, j) }
func (d denseAdapter) N() int              { return d.m.Rows }

// pickKernel selects the dual kernel: an RBF with either the configured
// bandwidth or the median pairwise distance heuristic.
func pickKernel(cfg Config, xs []linalg.Vector) kernel.Func {
	sigma := cfg.KernelSigma
	if sigma <= 0 {
		sigma = medianDistance(xs)
		if sigma <= 0 {
			sigma = 1
		}
	}
	return kernel.NewRBF(sigma)
}

// medianDistance estimates the median pairwise distance on a deterministic
// subsample.
func medianDistance(xs []linalg.Vector) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	stride := 1
	if n > 60 {
		stride = n / 60
	}
	var ds []float64
	for i := 0; i < n; i += stride {
		for j := i + stride; j < n; j += stride {
			ds = append(ds, math.Sqrt(linalg.SqDist(xs[i], xs[j])))
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}
