// Blocked, order-preserving dense kernels.
//
// The serial O(n³) linear algebra behind HYDRA's dual training (Eqns
// 15–17: the L·K product, the LU factorization of A and the multi-RHS
// solve for Z = A⁻¹JᵀY) dominates wall-clock once the pairwise stages run
// in parallel. This file provides the cache-blocked, row-parallel kernels
// MulWorkers and MulVecWorkers (behind Matrix.MulVec), with an explicit
// worker knob driven by internal/parallel.
//
// Determinism contract. Floating-point addition is not associative, so the
// tiling is chosen to never reorder an accumulation:
//
//   - the only reduction dimension in a product is k, and for every output
//     element (i,j) the k-loop still runs 0,1,…,K−1 in ascending order —
//     the k-tile loop is the outermost tile loop and the in-tile k-loop is
//     innermost-but-one, so tiles of k are visited in order and entries
//     within a tile are visited in order;
//   - i (output rows) and j (output columns) index independent output
//     elements: splitting them into parallel row blocks and cache tiles
//     changes which element is computed when, never the value computed;
//   - every output element is written by exactly one goroutine (rows are
//     partitioned into disjoint blocks), so there are no write races and
//     no merge step.
//
// Consequently both kernels return bit-for-bit identical results at any
// worker count — the same contract internal/parallel established for the
// pairwise stages — and also reproduce the pre-tiling serial loops exactly
// (same per-element operation order, including the a==0 skip in
// MulWorkers).
package linalg

import (
	"fmt"

	"hydra/internal/parallel"
)

// Tile geometry. The B-panel staged per (k,j) tile is mulKTile×mulColTile
// floats (256 KiB) and is reused across the mulRowBlock rows of a task, so
// B is streamed from memory once per row block instead of once per row.
// The row block is also the unit of parallel work: blocks are handed out
// dynamically, so ragged last tiles balance across workers.
const (
	mulRowBlock = 8
	mulKTile    = 128
	mulColTile  = 256
	// vecRowBlock rows of a matrix-vector product form one parallel task;
	// each row is an independent dot product, so the only tuning concern
	// is task granularity.
	vecRowBlock = 64
)

// MulWorkers returns m*n, computed by the blocked kernel with the given
// worker count (≤ 0 = all cores). The result is bit-identical at any
// worker count.
//
// Inner-kernel shape: for each output row and k-tile, the nonzero A
// entries are gathered once in ascending k order (structural zeros —
// Laplacian rows — skip their whole B-row pass, exactly like the classic
// loop), then applied to the output row four k-terms at a time:
//
//	s := orow[j] + a0*b0[j]; s += a1*b1[j]; s += a2*b2[j]; s += a3*b3[j]
//
// Every += above is a separately rounded float64 add in ascending k
// order — the identical operation sequence the one-k-at-a-time loop
// performs — so the fusion changes memory traffic (one orow load+store
// per four terms instead of four) but never a bit of the result.
func (m *Matrix) MulWorkers(n *Matrix, workers int) *Matrix {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := NewMatrix(m.Rows, n.Cols)
	nc := n.Cols
	blocks := (m.Rows + mulRowBlock - 1) / mulRowBlock
	parallel.For(workers, blocks, func(blk int) {
		var kIdx [mulKTile]int
		var kVal [mulKTile]float64
		i0 := blk * mulRowBlock
		i1 := min(i0+mulRowBlock, m.Rows)
		// k tiles ascend in the outermost loop and k ascends inside each
		// tile, so each output element accumulates its k-terms in exactly
		// the order of the un-tiled loop.
		for k0 := 0; k0 < m.Cols; k0 += mulKTile {
			k1 := min(k0+mulKTile, m.Cols)
			for i := i0; i < i1; i++ {
				arow := m.Data[i*m.Cols : (i+1)*m.Cols]
				nnz := 0
				for k := k0; k < k1; k++ {
					if av := arow[k]; av != 0 {
						kIdx[nnz], kVal[nnz] = k, av
						nnz++
					}
				}
				if nnz == 0 {
					continue
				}
				for j0 := 0; j0 < nc; j0 += mulColTile {
					j1 := min(j0+mulColTile, nc)
					orow := out.Data[i*nc+j0 : i*nc+j1]
					g := 0
					for ; g+4 <= nnz; g += 4 {
						a0, a1, a2, a3 := kVal[g], kVal[g+1], kVal[g+2], kVal[g+3]
						b0 := n.Data[kIdx[g]*nc+j0 : kIdx[g]*nc+j1]
						b1 := n.Data[kIdx[g+1]*nc+j0 : kIdx[g+1]*nc+j1]
						b2 := n.Data[kIdx[g+2]*nc+j0 : kIdx[g+2]*nc+j1]
						b3 := n.Data[kIdx[g+3]*nc+j0 : kIdx[g+3]*nc+j1]
						for j, bv := range b0 {
							s := orow[j] + a0*bv
							s += a1 * b1[j]
							s += a2 * b2[j]
							s += a3 * b3[j]
							orow[j] = s
						}
					}
					for ; g < nnz; g++ {
						av := kVal[g]
						brow := n.Data[kIdx[g]*nc+j0 : kIdx[g]*nc+j1]
						for j, bv := range brow {
							orow[j] += av * bv
						}
					}
				}
			}
		}
	})
	return out
}

// MulVecWorkers returns m*v with rows computed in parallel blocks (≤ 0 =
// all cores). Each row is one independent dot product accumulated in
// ascending column order, so the result is bit-identical at any worker
// count; MulVec is MulVecWorkers with one worker.
func (m *Matrix) MulVecWorkers(v Vector, workers int) Vector {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := NewVector(m.Rows)
	blocks := (m.Rows + vecRowBlock - 1) / vecRowBlock
	parallel.For(workers, blocks, func(blk int) {
		i0 := blk * vecRowBlock
		i1 := min(i0+vecRowBlock, m.Rows)
		for i := i0; i < i1; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			var s float64
			for j, x := range row {
				s += x * v[j]
			}
			out[i] = s
		}
	})
	return out
}
