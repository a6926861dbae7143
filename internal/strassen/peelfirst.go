package strassen

import "repro/internal/matrix"

// peelFirstMul is the alternate peeling technique of the paper's Section 5
// future work ("investigate alternate peeling techniques"): instead of
// stripping the *last* row/column of an odd dimension, strip the *first*.
// The fixup structure mirrors equation (9) with the border blocks on the
// top/left:
//
//	C22 block: A22·B22 (Strassen) + a21·b12 (DGER, k odd)
//	first column of C (n odd): full rows of op(A) times B's first column
//	first row of C (m odd): op(A)'s first row times the whole of op(B)
//
// The fixups are peelMul's (fixupGer, fixupCol, fixupRow): traced and
// charged to strassen.peel alike.
//
// Whether first- or last-peeling wins depends on which border lands on
// cache-aligned storage; BenchmarkAblationPeeling measures the difference.
func (e *engine) peelFirstMul(c *matrix.Dense, a, b matrix.View, alpha, beta float64, depth int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	ms, ks, ns := m&1, k&1, n&1

	coreA := a.Slice(ms, ks, m-ms, k-ks)
	coreB := b.Slice(ks, ns, k-ks, n-ns)
	coreC := c.Slice(ms, ns, m-ms, n-ns)
	e.level(coreC, coreA, coreB, alpha, beta, depth)

	if ks == 1 {
		// Core block += alpha * a[ms:,0] ⊗ b[0,ns:].
		x, incX := colVec(a, 0)
		y, incY := rowVec(b, 0)
		x, incX = offsetVec(x, incX, ms)
		y, incY = offsetVec(y, incY, ns)
		e.fixupGer(depth, m, k, n, coreC, alpha, x, incX, y, incY)
	}
	if ns == 1 {
		// First column of C, rows ms..m: alpha * op(A)[ms:, :] · B[:, 0].
		x, incX := colVec(b, 0)
		e.fixupCol(depth, m, k, n, a.Slice(ms, 0, m-ms, k), alpha, x, incX, beta, c.Data[ms:])
	}
	if ms == 1 {
		// First row of C, all n columns: alpha * op(A)[0, :] · op(B).
		x, incX := rowVec(a, 0)
		e.fixupRow(depth, m, k, n, b, alpha, x, incX, beta, c.Data, c.Stride)
	}
}

// offsetVec advances a strided vector by cnt logical elements.
func offsetVec(x []float64, inc, cnt int) ([]float64, int) {
	return x[cnt*inc:], inc
}
