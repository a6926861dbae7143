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

// frame binds a program's slots to one level's matrices: its blocks
// (blocks) over a and b, padded to the grid, and over c, which holds the
// part of the level's C that is stored. When the level pads virtually the
// last block row and column overhang the matrices: A and B blocks read
// the overhang as +0.0, C blocks are clipped to it, and temporaries have
// the full block shape.
type frame struct {
	blocks
	a, b matrix.View
	c    *matrix.Dense
	tmp  [][]float64
}

// dense resolves a writable slot: a C block (or all of C), clipped to
// what C stores, or a temporary.
func (f *frame) dense(s slot) *matrix.Dense {
	if s.temp {
		r, c := f.dims(s.shape)
		return matrix.FromColMajor(r, c, max(r, 1), f.tmp[s.idx])
	}
	if s.idx == wholeC {
		return f.c
	}
	i, j := f.origin(s)
	r, c := f.stored(s)
	return f.c.Slice(min(i, f.c.Rows), min(j, f.c.Cols), r, c)
}

// view resolves any slot as an operand of the full block shape.
func (f *frame) view(s slot) matrix.View {
	if s.temp || s.shape == shapeC {
		r, c := f.dims(s.shape)
		if s.idx == wholeC {
			r, c = f.c.Rows, f.c.Cols
		}
		return matrix.ViewOf(f.dense(s)).PadTo(r, c)
	}
	i, j := f.origin(s)
	r, c := f.dims(s.shape)
	if s.shape == shapeA {
		return f.a.Slice(i, j, r, c)
	}
	return f.b.Slice(i, j, r, c)
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
		e.pass(passAxpby, phQ, c, matrix.ViewOf(w).Slice(0, 0, c.Rows, c.Cols), matrix.View{}, beta)
		return
	}
	bl := p.blocks(m, k, n, extentOf(c, a, b))
	f := &frame{blocks: bl, c: c,
		a: a.PadTo(p.m*bl.mq, p.k*bl.kq), b: b.PadTo(p.k*bl.kq, p.n*bl.nq)}
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
	// A clipped C destination takes the part of each source it stores.
	dst := f.dense(o.dst)
	var x, y matrix.View
	if o.px >= 0 {
		x = f.view(o.terms[o.px].src).Slice(0, 0, dst.Rows, dst.Cols)
	}
	if o.py >= 0 {
		y = f.view(o.terms[o.py].src).Slice(0, 0, dst.Rows, dst.Cols)
	}
	id := phAS
	if o.dst.shape == shapeC {
		id = phQ
	}
	e.pass(o.pass, id, dst, x, y, o.terms[o.pg].coeff(beta))
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
// destinations passed as the stored parts of their blocks — a block
// overhanging the matrices carries its shorter extent, and the kernel
// reads the rest as +0.0 and writes none of it. No Strassen temporaries.
// On a multi-worker runtime each record's rows split into bands run as
// tasks (FusedMulAddTasks), bit-identical to the sequential hook.
func (e *engine) fusedLevel(recs []fusedRecord, f *frame, alpha, beta float64) {
	e.pass(passScale, phQ, f.c, matrix.View{}, matrix.View{}, beta)
	var at, bt [4]kernel.Term
	var dt [4]kernel.Dest
	aOp := kernel.Operand{Ld: f.a.Stride, Trans: f.a.Trans}
	bOp := kernel.Operand{Ld: f.b.Stride, Trans: f.b.Trans}
	for _, rec := range recs {
		for i, t := range rec.a {
			at[i] = kernelTerm(f.a.Slice(t.r*f.mq, t.c*f.kq, f.mq, f.kq), t.g)
		}
		for i, t := range rec.b {
			bt[i] = kernelTerm(f.b.Slice(t.r*f.kq, t.c*f.nq, f.kq, f.nq), t.g)
		}
		for i, t := range rec.dst {
			q := f.dense(slot{shape: shapeC, idx: t.r*f.gn + t.c})
			dt[i] = kernel.Dest{Data: q.Data, Ld: q.Stride, Coeff: t.g, Rows: q.Rows, Cols: q.Cols}
		}
		aOp.Terms = at[:len(rec.a)]
		bOp.Terms = bt[:len(rec.b)]
		e.fusedMulAdd(f.mq, f.nq, f.kq, alpha, aOp, bOp, dt[:len(rec.dst)])
	}
}

// fusedMulAdd runs one fused product through the kernel's hooks, split
// into row bands on a multi-worker runtime.
func (e *engine) fusedMulAdd(m, n, k int, alpha float64, a, b kernel.Operand, dests []kernel.Dest) {
	if e.threadLeaves() {
		e.fk.FusedMulAddTasks(e.sub, m, n, k, alpha, a, b, dests)
	} else {
		e.fk.FusedMulAdd(m, n, k, alpha, a, b, dests)
	}
}

// kernelTerm is a block view as a fused operand term: its stored part, with
// that part's extent.
func kernelTerm(v matrix.View, g float64) kernel.Term {
	s := v.Stored()
	return kernel.Term{Data: s.Data, Coeff: g, Rows: s.Rows, Cols: s.Cols}
}
