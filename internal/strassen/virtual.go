package strassen

// Virtual padding: under OddPeel a level whose shape the grid does not
// divide may run its program on blocks rounded up to the grid instead of
// peeling (Section 3.3's peel-versus-pad question, answered per level).
// The blocks of the last block row and column then overhang the matrices.
// Nothing is copied: A and B blocks read the overhang as +0.0, C blocks
// store only the part inside C, temporaries have the full block shape,
// and products recurse on the full block shape with operands that store
// only part of it. The result is what the level computes on zero-padded
// copies (OddPadDynamic), bit for bit, without the copies — provided the
// level's program never needs a value it does not store. padsVirtually
// derives that from the program:
//
//	(a) levels may fuse, so the kernel has the product hooks, through
//	    which a base case whose operands overhang runs with clipped
//	    terms (baseGemm);
//	(b) no op reads a C block the program wrote earlier into a
//	    destination that stores more than that block (the value the
//	    destination needs would be in the block's unstored overhang);
//	(c) every product that receives an overhanging block recurses into a
//	    subproblem that accepts one: a base case under (a), a fused
//	    level, or a level that itself passes (a)–(c).

import "repro/internal/matrix"

// extent is what a subproblem's operands store of their logical shapes:
// A stores ar×ac of its m×k, B br×bc of k×n and C cr×cc of m×n, each from
// the top-left corner. Only below a virtually padded level does an extent
// fall short of its shape.
type extent struct{ ar, ac, br, bc, cr, cc int }

// full is the extent of operands that store all of (m, k, n).
func full(m, k, n int) extent { return extent{m, k, k, n, m, n} }

// extentOf reads a subproblem's extent off its operands: a and b say what
// they pad, and c is the part of C that is stored.
func extentOf(c *matrix.Dense, a, b matrix.View) extent {
	return extent{a.Rows - a.PadRows, a.Cols - a.PadCols, b.Rows - b.PadRows, b.Cols - b.PadCols, c.Rows, c.Cols}
}

// blocks is one level's block partition: A blocks are mq×kq, B blocks
// kq×nq and C blocks mq×nq on a grid gk blocks wide in A and gn in B and
// C, laid over operands that store x.
type blocks struct {
	mq, kq, nq int
	gk, gn     int
	x          extent
}

// blocks partitions an (m, k, n) level whose operands store x into the
// program's grid, rounding the block shape up.
func (p *program) blocks(m, k, n int, x extent) blocks {
	return blocks{mq: ceilDiv(m, p.m), kq: ceilDiv(k, p.k), nq: ceilDiv(n, p.n), gk: p.k, gn: p.n, x: x}
}

// dims is a block shape's rows and columns.
func (b *blocks) dims(s shape) (int, int) {
	d := [...][2]int{shapeA: {b.mq, b.kq}, shapeB: {b.kq, b.nq}, shapeC: {b.mq, b.nq}}[s]
	return d[0], d[1]
}

// origin is the top-left corner of a block slot in its matrix.
func (b *blocks) origin(s slot) (int, int) {
	r, c := b.dims(s.shape)
	cols := b.gn
	if s.shape == shapeA {
		cols = b.gk
	}
	return s.idx / cols * r, s.idx % cols * c
}

// stored is the extent a slot stores: a temporary all of its block, all
// of C what C stores, a block the part of it inside its matrix's extent.
func (b *blocks) stored(s slot) (int, int) {
	r, c := b.dims(s.shape)
	switch {
	case s.temp:
		return r, c
	case s.idx == wholeC:
		return b.x.cr, b.x.cc
	}
	h := [...][2]int{shapeA: {b.x.ar, b.x.ac}, shapeB: {b.x.br, b.x.bc}, shapeC: {b.x.cr, b.x.cc}}[s.shape]
	i, j := b.origin(s)
	r, c = min(max(h[0]-i, 0), r), min(max(h[1]-j, 0), c)
	if r == 0 || c == 0 {
		return 0, 0 // a block past the matrix stores nothing
	}
	return r, c
}

// child is the extent of a mul op's product subproblem on the level's
// block shape.
func (b *blocks) child(o *op) extent {
	ar, ac := b.stored(o.x)
	br, bc := b.stored(o.y)
	cr, cc := b.stored(o.dst)
	return extent{ar, ac, br, bc, cr, cc}
}

// childBetaZero reports whether a mul op's product runs with β = 0 in a
// level whose own β class is betaZero.
func (o *op) childBetaZero(betaZero bool) bool {
	return o.acc == acc0 || (o.acc == accBeta && betaZero)
}

// padsVirtually reports whether an (m, k, n) level whose operands store x
// runs its program on blocks rounded up to the grid, reading and storing
// only what the operands store, instead of peeling: under OddPeel, when
// its program passes (a)–(c) above. The engine asks it of every level
// whose blocks would overhang (an odd shape, or operands that store less
// than it), and PlanFor replays it.
func (p *policy) padsVirtually(m, k, n int, betaZero bool, depth int, x extent) bool {
	if p.odd != OddPeel || p.fk == nil { // (a)
		return false
	}
	return p.programPads(p.levelProgram(m, k, n, betaZero, depth), m, k, n, betaZero, depth, x)
}

// programPads reports whether prog, run on an (m, k, n) level whose
// operands store x, passes (b) and (c).
func (p *policy) programPads(prog *program, m, k, n int, betaZero bool, depth int, x extent) bool {
	if prog.recs != nil {
		return true // the fused packers and write-out clip every block
	}
	if prog.fold != nil {
		// The fold runs its body into an m×n buffer, which stores all of
		// the level's C but not the overhang of its blocks.
		prog, betaZero, x.cr, x.cc = prog.fold, true, m, n
	}
	bl := prog.blocks(m, k, n, x)
	for _, rd := range prog.cReads { // (b)
		sr, sc := bl.stored(rd.src)
		if dr, dc := bl.stored(rd.dst); dr > sr || dc > sc {
			return false
		}
	}
	whole := full(bl.mq, bl.kq, bl.nq)
	for i := range prog.ops { // (c)
		o := &prog.ops[i]
		if !o.mul {
			continue
		}
		if cx := bl.child(o); cx != whole && !p.accepts(bl.mq, bl.kq, bl.nq, o.childBetaZero(betaZero), depth+1, cx) {
			return false
		}
	}
	return true
}

// accepts reports whether a subproblem whose operands store x of
// (m, k, n) can run on them as they are: a base case through the hooks,
// or a level that pads virtually.
func (p *policy) accepts(m, k, n int, betaZero bool, depth int, x extent) bool {
	if !p.recurse(m, k, n, depth) {
		return p.fk != nil
	}
	return p.padsVirtually(m, k, n, betaZero, depth, x)
}
