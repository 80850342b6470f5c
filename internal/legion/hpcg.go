package legion

import (
	"fmt"
	"math"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
)

// HPCG-style workload: a preconditioner-free conjugate-gradient solve of a
// 27-point-stencil-like sparse symmetric positive definite system — the
// High Performance Conjugate Gradients benchmark the paper uses to
// evaluate hand-ported Legion (section 2), scaled to simulation size.
//
// CG's structure is what makes it a synchronization benchmark: every
// iteration is a chain of bulk-synchronous steps (SpMV, two dot products,
// three AXPYs) whose barriers put the runtime's wakeup primitive on the
// critical path.

// flopCost is the virtual cost of one fused multiply-add in the kernels.
const flopCost = 3

// SparseMatrix is a symmetric banded matrix in diagonal-offset form.
type SparseMatrix struct {
	N       int
	Offsets []int     // band offsets (0 = diagonal)
	Vals    []float64 // one value per band (Toeplitz-style), Vals[0] on the diagonal
}

// NewStencilMatrix builds a diagonally dominant SPD banded system of size
// n modelled on a 1D projection of the HPCG 27-point stencil: a strong
// diagonal with symmetric off-diagonal bands.
func NewStencilMatrix(n int) *SparseMatrix {
	return &SparseMatrix{
		N:       n,
		Offsets: []int{0, 1, -1, 16, -16},
		Vals:    []float64{4.0, -0.6, -0.6, -0.4, -0.4},
	}
}

// NNZRow returns the nonzeros per row (band count).
func (m *SparseMatrix) NNZRow() int { return len(m.Offsets) }

// HPCGResult is one solve's outcome.
type HPCGResult struct {
	Iterations  int
	Residual    float64
	X           []float64 // the computed solution (exact answer: all ones)
	Cycles      cycles.Cycles
	SyncOps     int
	Launches    int
	SyncBinding string
	Workers     int
}

// RunHPCG performs `iters` CG iterations of Ax=b (b = A·ones) on the
// runtime and reports the final residual and the master's elapsed virtual
// time.
func RunHPCG(rt *Runtime, env core.Env, n, iters int) (*HPCGResult, error) {
	if n < 64 {
		return nil, fmt.Errorf("legion: HPCG needs n >= 64, got %d", n)
	}
	a := NewStencilMatrix(n)

	// b = A * ones so the exact solution is all-ones (verifiable).
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, n)
	spmvSeq(a, ones, b)

	x := make([]float64, n)
	r := append([]float64(nil), b...) // r = b - A*0
	p := append([]float64(nil), b...)
	ap := make([]float64, n)

	start := env.Clock().Now()
	rr := dot(rt, r, r)
	nnz := a.NNZRow()

	for it := 0; it < iters; it++ {
		// ap = A * p (parallel SpMV).
		rt.IndexLaunch(n, func(w core.Env, i int) {
			sum := 0.0
			for k, off := range a.Offsets {
				j := i + off
				if j >= 0 && j < n {
					sum += a.Vals[k] * p[j]
				}
			}
			ap[i] = sum
			w.Compute(cycles.Cycles(nnz * flopCost))
		})

		pap := dot(rt, p, ap)
		if pap == 0 {
			break
		}
		alpha := rr / pap

		// x += alpha p ; r -= alpha ap (fused parallel AXPY).
		rt.IndexLaunch(n, func(w core.Env, i int) {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			w.Compute(4 * flopCost)
		})

		rrNew := dot(rt, r, r)
		beta := rrNew / rr
		rr = rrNew

		// p = r + beta p.
		rt.IndexLaunch(n, func(w core.Env, i int) {
			p[i] = r[i] + beta*p[i]
			w.Compute(2 * flopCost)
		})
	}

	elapsed := env.Clock().Now() - start
	rt.solveHist.Observe(elapsed)
	return &HPCGResult{
		Iterations:  iters,
		Residual:    math.Sqrt(rr),
		X:           x,
		Cycles:      elapsed,
		SyncOps:     rt.SyncOps,
		Launches:    rt.Launches,
		SyncBinding: rt.SyncBinding(),
		Workers:     rt.Workers(),
	}, nil
}

// dot is a parallel dot product with reduction.
func dot(rt *Runtime, a, b []float64) float64 {
	return rt.Reduce(len(a), func(w core.Env, i int) float64 {
		w.Compute(flopCost)
		return a[i] * b[i]
	})
}

// spmvSeq is the sequential reference SpMV used for setup and checking.
func spmvSeq(m *SparseMatrix, in, out []float64) {
	for i := 0; i < m.N; i++ {
		sum := 0.0
		for k, off := range m.Offsets {
			j := i + off
			if j >= 0 && j < m.N {
				sum += m.Vals[k] * in[j]
			}
		}
		out[i] = sum
	}
}

// VerifySolution checks that x approximates the all-ones solution.
func VerifySolution(x []float64, tol float64) error {
	for i, v := range x {
		if math.Abs(v-1) > tol {
			return fmt.Errorf("legion: x[%d] = %v, want 1±%v", i, v, tol)
		}
	}
	return nil
}
