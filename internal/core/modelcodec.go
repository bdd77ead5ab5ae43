package core

import (
	"fmt"

	"hydra/internal/kernel"
	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// The model codec splits Train from Score/Link across processes: a
// trained Model is reduced to ModelParts — plain exported data that
// marshals to JSON losslessly (Go's float64 encoding is shortest-uniquely-
// identifying, so every coefficient round-trips bit-exact) — and rebuilt
// with ModelFromParts over a feature store: a bundle's, or a freshly
// systemized dataset's. The restored model produces bit-identical
// Score/Link values because all of its inputs (support vectors,
// duals, bias, kernel bandwidth, imputation config) are carried verbatim
// rather than recomputed.

// KernelRBF is the one kernel kind ModelParts carries: Train always fits
// an RBF.
const KernelRBF = "rbf"

// ModelParts is the serializable state of a trained Model: everything
// Score/Link needs, and nothing tied to the training process.
type ModelParts struct {
	// Cfg is the training configuration; Score needs Variant and
	// TopFriends, the rest is kept for provenance.
	Cfg Config `json:"cfg"`
	// KernelKind and KernelSigma pin the dual kernel, including the
	// learned median-heuristic bandwidth when Cfg.KernelSigma was 0.
	KernelKind  string  `json:"kernel_kind"`
	KernelSigma float64 `json:"kernel_sigma,omitempty"`
	// Xs are the candidate feature vectors of the kernel expansion
	// (Eqn 12) and Alpha their dual coefficients; Bias is b.
	Xs    []linalg.Vector `json:"xs"`
	Alpha linalg.Vector   `json:"alpha"`
	Bias  float64         `json:"bias"`
	// Diag preserves the training diagnostics for reporting.
	Diag Diagnostics `json:"diag"`
}

// Parts extracts the serializable state of the model.
func (m *Model) Parts() (ModelParts, error) {
	p := ModelParts{Cfg: m.cfg, Xs: m.xs, Alpha: m.alpha, Bias: m.bias, Diag: m.Diag}
	k, ok := m.kern.(kernel.RBF)
	if !ok {
		return ModelParts{}, fmt.Errorf("core: kernel %s has no codec", m.kern.Name())
	}
	p.KernelKind, p.KernelSigma = KernelRBF, k.Sigma
	return p, nil
}

// ModelFromParts rebuilds a servable Model over a feature store — a
// freshly systemized dataset's (System.LazyStore) or one restored from a
// bundle. The store must present the same feature space the model was
// trained on (same dataset, lexicons and feature config) for scores to be
// meaningful; over an identical one the restored model is bit-exact.
func ModelFromParts(st *LazyStore, p ModelParts) (*Model, error) {
	if st == nil {
		return nil, fmt.Errorf("core: ModelFromParts needs a store")
	}
	if len(p.Xs) == 0 {
		return nil, fmt.Errorf("core: model parts have no candidate vectors")
	}
	if len(p.Alpha) != len(p.Xs) {
		return nil, fmt.Errorf("core: %d dual coefficients for %d candidate vectors", len(p.Alpha), len(p.Xs))
	}
	if p.KernelKind != KernelRBF {
		return nil, fmt.Errorf("core: unknown kernel kind %q", p.KernelKind)
	}
	if p.KernelSigma <= 0 {
		return nil, fmt.Errorf("core: rbf model parts need a positive bandwidth, got %g", p.KernelSigma)
	}
	m := &Model{store: st, cfg: p.Cfg, kern: kernel.NewRBF(p.KernelSigma), xs: p.Xs, alpha: p.Alpha, bias: p.Bias}
	m.Diag = p.Diag
	m.compactSupport()
	return m, nil
}

// ScoreBatchWorkers scores a batch of account pairs between two platforms
// through the batched serving fast path (see ScoreBatchInto): the batch
// is imputed into pooled feature rows, all kernel values are evaluated in
// one blocked pass over the packed support set, and α and the bias are
// folded per pair — bit-identical to per-pair Score at any worker count
// (≤ 0 = all cores). This is the serving hot path — a top-k query or an
// HTTP score batch lands here.
func (m *Model) ScoreBatchWorkers(pa platform.ID, pb platform.ID, pairs [][2]int, workers int) ([]float64, error) {
	out := make([]float64, len(pairs))
	if err := m.ScoreBatchInto(pa, pb, pairs, workers, out); err != nil {
		return nil, err
	}
	return out, nil
}
