package strassen

import "repro/internal/matrix"

// This file implements the two padding alternatives to dynamic peeling
// (Section 2): dynamic padding (one zero row/column added per odd dimension
// at every recursion level, as in Douglas et al.) and static padding
// (Strassen's original suggestion — pad once, up front, so every dimension
// met during recursion is even). Both exist for the paper's
// peeling-vs-padding comparison; DGEFMM itself pads virtually, without
// the copies, where a level allows it (virtual.go) and peels elsewhere.
// Dynamic padding is the reference virtual padding must match bit for
// bit.

// padDynamicMul pads each odd dimension of the current level with one zero
// row/column, applies one Strassen level to the padded operands, and copies
// the valid region back.
func (e *engine) padDynamicMul(c *matrix.Dense, a, b matrix.View, alpha, beta float64, depth int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	e.padded(c, a, b, m+(m&1), k+(k&1), n+(n&1), beta, func(c *matrix.Dense, a, b matrix.View) {
		e.level(c, a, b, alpha, beta, depth)
	})
}

// staticPadMul implements static padding at the top level of DGEFMM: it
// predicts the recursion depth d the cutoff criterion will produce, pads
// every dimension to a multiple of 2^d, and runs the recursion with that
// depth bound so no odd dimension is ever encountered.
func (e *engine) staticPadMul(c *matrix.Dense, a, b matrix.View, alpha, beta float64) {
	m, k, n := a.Rows, a.Cols, b.Cols
	d := e.predictDepth(m, k, n)
	if d == 0 {
		e.baseGemm(c, a, b, alpha, beta)
		return
	}
	unit := 1 << uint(d)
	inner := *e
	inner.maxDepth = d
	inner.odd = OddPeel // no odd dimensions can occur below; peel is a no-op path
	e.padded(c, a, b, roundUp(m, unit), roundUp(k, unit), roundUp(n, unit), beta, func(c *matrix.Dense, a, b matrix.View) {
		inner.mul(c, a, b, alpha, beta, 0)
	})
}

// padded runs run on copies of the operands zero-padded to mp×kp and
// kp×np (C to mp×np), then copies the valid region of C back; with no
// padding needed it runs on the operands themselves.
func (e *engine) padded(c *matrix.Dense, a, b matrix.View, mp, kp, np int, beta float64, run func(c *matrix.Dense, a, b matrix.View)) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if mp == m && kp == k && np == n {
		run(c, a, b)
		return
	}
	ap := e.allocMat(mp, kp)
	defer e.freeMat(ap)
	bp := e.allocMat(kp, np)
	defer e.freeMat(bp)
	cp := e.allocMat(mp, np)
	defer e.freeMat(cp)

	// The tracker (and make) hand out zeroed memory, so only the valid
	// regions need copying.
	a.Materialize(ap.Slice(0, 0, m, k))
	b.Materialize(bp.Slice(0, 0, k, n))
	if beta != 0 {
		cp.Slice(0, 0, m, n).CopyFrom(c)
	}
	run(cp, matrix.ViewOf(ap), matrix.ViewOf(bp))
	c.CopyFrom(cp.Slice(0, 0, m, n))
}

// predictDepth simulates the recursion the criterion would drive on
// ceil-halved dimensions, yielding the static padding depth.
func (p *policy) predictDepth(m, k, n int) int {
	d := 0
	for m > 1 && k > 1 && n > 1 &&
		(p.maxDepth == 0 || d < p.maxDepth) &&
		p.criterion(m, k, n) {
		m, k, n = (m+1)/2, (k+1)/2, (n+1)/2
		d++
	}
	return d
}

func roundUp(x, unit int) int {
	return (x + unit - 1) / unit * unit
}
