package strassen

// The one interpreter: runs a level program on an exactly grid-divisible
// problem. Each lin op lowers to one elementwise matrix kernel bracketed by
// the phase of its destination (A and B blocks: strassen.addsub, the
// stage (1)/(2) operand sums; C blocks: strassen.quadrant, the stage (4)
// combinations); each mul op re-enters engine.mul one level deeper, so
// the cutoff criterion and peeling apply independently at every level.
//
// FLOP convention (matches internal/opcount: one add or one multiply each
// count 1): a binary add/sub pass over an r×c destination is r·c FLOPs;
// x − y − dst is 2·r·c; a copy is 0. Byte convention: 8 bytes per word
// touched — a binary or in-place pass reads two operands and writes one
// (24 B/elem), x − y − dst reads three and writes one (32 B/elem), a copy
// reads one and writes one (16 B/elem).

import (
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/phase"
	"repro/internal/sched"
)

const (
	phAS = phase.StrassenAddSub
	phQ  = phase.StrassenQuadrant
)

// frame binds a program's slots to one level's matrices. Blocks are
// mq×kq (A), kq×nq (B) and mq×nq (C): the level's shape divided by the
// grid, rounded up when a fused level pads virtually, in which case the
// last block row and column overhang the matrices.
type frame struct {
	a, b       matrix.View
	c          *matrix.Dense
	mq, kq, nq int
	gk, gn     int
	tmp        [][]float64
}

// dims is a block shape's rows and columns on this level.
func (f *frame) dims(s shape) (int, int) {
	d := [...][2]int{shapeA: {f.mq, f.kq}, shapeB: {f.kq, f.nq}, shapeC: {f.mq, f.nq}}[s]
	return d[0], d[1]
}

// dense resolves a writable slot: a C block (or all of C) or a temporary.
func (f *frame) dense(s slot) *matrix.Dense {
	if s.temp {
		r, c := f.dims(s.shape)
		return matrix.FromColMajor(r, c, max(r, 1), f.tmp[s.idx])
	}
	if s.idx == wholeC {
		return f.c
	}
	return f.c.Slice(s.idx/f.gn*f.mq, s.idx%f.gn*f.nq, f.mq, f.nq)
}

// view resolves any slot as an operand.
func (f *frame) view(s slot) matrix.View {
	switch {
	case s.temp || s.shape == shapeC:
		return matrix.ViewOf(f.dense(s))
	case s.shape == shapeA:
		return f.a.Slice(s.idx/f.gk*f.mq, s.idx%f.gk*f.kq, f.mq, f.kq)
	}
	return f.b.Slice(s.idx/f.gn*f.kq, s.idx%f.gn*f.nq, f.kq, f.nq)
}

// exec runs one level program on c ← alpha·a·b + beta·c; its products
// recurse at depth+1. Temporaries are drawn from the tracker up front, in
// declaration order, and returned in reverse, so the arena peak is the
// level's declared words plus its worst child (lanes children on a DAG
// level). They are drawn without zeroing: every program writes a
// temporary in full before it reads it (the poison build tag checks).
func (e *engine) exec(p *program, c *matrix.Dense, a, b matrix.View, alpha, beta float64, depth int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if p.fold != nil {
		w := e.allocMat(m, n)
		defer e.freeMat(w)
		e.exec(p.fold, w, a, b, alpha, 0, depth)
		e.pass(passAxpby, phQ, c, matrix.ViewOf(w), matrix.View{}, beta)
		return
	}
	f := &frame{a: a, b: b, c: c, mq: ceilDiv(m, p.m), kq: ceilDiv(k, p.k), nq: ceilDiv(n, p.n), gk: p.k, gn: p.n}
	if p.recs != nil {
		e.fusedLevel(p.recs, f, alpha, beta)
		return
	}
	f.tmp = make([][]float64, len(p.temps))
	for i, shapes := range p.temps {
		most := 0
		for _, s := range shapes {
			r, c := f.dims(s)
			most = max(most, r*c)
		}
		f.tmp[i] = e.tracker.AllocUninit(most)
	}
	defer func() {
		for i := len(f.tmp) - 1; i >= 0; i-- {
			e.tracker.Free(f.tmp[i])
		}
	}()
	if p.tasks != nil {
		e.runTasks(p, f, alpha, beta, depth+1)
		return
	}
	for i := range p.ops {
		e.step(&p.ops[i], f, alpha, beta, depth+1)
	}
}

// step runs one op; a mul op's product recurses at depth.
func (e *engine) step(o *op, f *frame, alpha, beta float64, depth int) {
	if o.mul {
		al, bt := alpha, 0.0
		if o.neg {
			al = -alpha
		}
		switch o.acc {
		case acc1:
			bt = 1
		case accBeta:
			bt = beta
		}
		e.mul(f.dense(o.dst), f.view(o.x), f.view(o.y), al, bt, depth)
		return
	}
	var x, y matrix.View
	if o.px >= 0 {
		x = f.view(o.terms[o.px].src)
	}
	if o.py >= 0 {
		y = f.view(o.terms[o.py].src)
	}
	id := phAS
	if o.dst.shape == shapeC {
		id = phQ
	}
	e.pass(o.pass, id, f.dense(o.dst), x, y, o.terms[o.pg].coeff(beta))
}

// pass runs one elementwise matrix kernel under a phase bracket.
func (e *engine) pass(p pass, id phase.ID, dst *matrix.Dense, x, y matrix.View, g float64) {
	if p == passScale && g == 1 {
		return
	}
	n := int64(dst.Rows) * int64(dst.Cols)
	flops, bytes := n, 24*n
	s := e.prof.Begin(id)
	switch p {
	case passCopy:
		x.Materialize(dst)
		flops, bytes = 0, 16*n
	case passAdd:
		matrix.Add(dst, x, y)
	case passSub:
		matrix.Sub(dst, x, y)
	case passAddAssign:
		matrix.AddAssign(dst, x)
	case passSubAssign:
		matrix.SubAssign(dst, x)
	case passRevSubAssign:
		matrix.RevSubAssign(dst, x)
	case passAddSubAssign:
		matrix.AddSubAssign(dst, x, y)
		flops, bytes = 2*n, 32*n
	case passAxpby:
		// x + g·dst: g = 0 is a pure copy (dst written, not read), g = 1
		// one add per element, general g a multiply and an add.
		matrix.Axpby(dst, 1, x, g)
		switch g {
		case 0:
			flops, bytes = 0, 16*n
		case 1:
		default:
			flops = 2 * n
		}
	case passAccum:
		matrix.Axpby(dst, g, x, 1)
		flops = 2 * n
	case passScaleCopy:
		matrix.Axpby(dst, g, x, 0)
		bytes = 16 * n
	case passScale:
		scaleInPlace(dst, g)
		if g == 0 {
			flops, bytes = 0, 8*n // Zero: write-only
		} else {
			bytes = 16 * n
		}
	}
	s.End(flops, bytes)
}

// runTasks runs a DAG program on the engine's task runtime. The program
// was compiled for the engine's lanes (compileDAG), so the edges that
// order its lanes' buffer reuse also cap the products in flight at lanes:
// the workspace bound the plan charges — own + lanes·child — is
// structural rather than a scheduling accident. Formation and write-back
// tasks share the engine (they touch only the profiler and their own
// slots); product tasks recurse on an engine bound to the executing
// worker.
func (e *engine) runTasks(p *program, f *frame, alpha, beta float64, depth int) {
	d := sched.NewDAG()
	nodes := make([]*sched.Node, len(p.tasks))
	for i, tk := range p.tasks {
		ops := p.ops[tk.first:tk.last]
		deps := make([]*sched.Node, len(tk.deps))
		for j, dep := range tk.deps {
			deps[j] = nodes[dep]
		}
		nodes[i] = d.Add(func(w *sched.Worker) {
			eng := e
			if ops[0].mul {
				eng = e.taskEngine(w)
			}
			for j := range ops {
				eng.step(&ops[j], f, alpha, beta, depth)
			}
		}, deps...)
	}
	// On cancellation the DAG drains without running remaining bodies; the
	// partially written C is discarded by the caller (dgefmm surfaces the
	// context error), and the deferred frees keep the arena balanced.
	_ = e.sub.Run(e.runCtx(), d)
}

// fusedLevel streams a fused level's records through the kernel's hooks:
// β applied once up front, then each record's operand terms and
// destinations passed as block views clipped to the matrices — a block
// overhanging the last row or column carries its shorter extent, and the
// kernel reads the rest as +0.0 and writes none of it. No Strassen
// temporaries. On a multi-worker runtime each record's rows split into
// bands run as tasks (FusedMulAddTasks), bit-identical to the sequential
// hook.
func (e *engine) fusedLevel(recs []fusedRecord, f *frame, alpha, beta float64) {
	e.pass(passScale, phQ, f.c, matrix.View{}, matrix.View{}, beta)
	var at, bt [4]kernel.Term
	var dt [4]kernel.Dest
	aOp := kernel.Operand{Ld: f.a.Stride, Trans: f.a.Trans}
	bOp := kernel.Operand{Ld: f.b.Stride, Trans: f.b.Trans}
	for _, rec := range recs {
		for i, t := range rec.a {
			v := clipBlock(f.a, t.r*f.mq, t.c*f.kq, f.mq, f.kq)
			at[i] = kernel.Term{Data: v.Data, Coeff: t.g, Rows: v.Rows, Cols: v.Cols}
		}
		for i, t := range rec.b {
			v := clipBlock(f.b, t.r*f.kq, t.c*f.nq, f.kq, f.nq)
			bt[i] = kernel.Term{Data: v.Data, Coeff: t.g, Rows: v.Rows, Cols: v.Cols}
		}
		for i, t := range rec.dst {
			q := clipBlock(matrix.ViewOf(f.c), t.r*f.mq, t.c*f.nq, f.mq, f.nq)
			dt[i] = kernel.Dest{Data: q.Data, Ld: q.Stride, Coeff: t.g, Rows: q.Rows, Cols: q.Cols}
		}
		aOp.Terms = at[:len(rec.a)]
		bOp.Terms = bt[:len(rec.b)]
		if e.threadLeaves() {
			e.fk.FusedMulAddTasks(e.sub, f.mq, f.nq, f.kq, alpha, aOp, bOp, dt[:len(rec.dst)])
		} else {
			e.fk.FusedMulAdd(f.mq, f.nq, f.kq, alpha, aOp, bOp, dt[:len(rec.dst)])
		}
	}
}

// clipBlock is the part of the r×c block at (i, j) of v that lies inside
// v (empty when the block starts past v's last row or column).
func clipBlock(v matrix.View, i, j, r, c int) matrix.View {
	i, j = min(i, v.Rows), min(j, v.Cols)
	return v.Slice(i, j, min(r, v.Rows-i), min(c, v.Cols-j))
}
