package strassen

// The one interpreter: runs a level program on an exactly grid-divisible
// problem, its ops in order on the calling goroutine, on every runtime.
// Each lin op is one pass of the elementwise kernel matrix.Lin — on a
// multi-worker runtime one task per column band of its destination
// (engine.lin) —, bracketed by the phase of its destination (A and B blocks:
// strassen.addsub, the stage (1)/(2) operand sums; C blocks:
// strassen.quadrant, the stage (4) combinations); each mul op re-enters
// engine.mul one level deeper, so the cutoff criterion and peeling apply
// independently at every level.
//
// Cost rule of a lin op dst ← Σ gᵢ·Yᵢ over an r×c destination, per element
// and counting only the terms with gᵢ ≠ 0 (one add or one multiply each
// count 1 FLOP, as in internal/opcount): the first term costs 1 FLOP unless
// gᵢ = +1 (a copy); each later term costs 1, or 2 when gᵢ is not ±1 (a
// multiply and an add). Bytes: 8 per source read plus 8 for the word
// written, so a lone zeroing costs 8.

import (
	"sync"

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
// level's declared words plus its worst child. They are drawn without
// zeroing: every program writes a temporary in full before it reads it
// (the poison build tag checks).
func (e *engine) exec(p *program, c *matrix.Dense, a, b matrix.View, alpha, beta float64, depth int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if p.fold != nil {
		w := e.allocMat(m, n)
		defer e.freeMat(w)
		e.exec(p.fold, w, a, b, alpha, 0, depth)
		e.lin(phQ, c, matrix.Term{G: 1, X: matrix.ViewOf(w).Slice(0, 0, c.Rows, c.Cols)}, matrix.Term{G: beta, Dst: true})
		return
	}
	bl := p.blocks(m, k, n, extentOf(c, a, b))
	f := &frame{blocks: bl, c: c,
		a: a.PadTo(p.m*bl.mq, p.k*bl.kq), b: b.PadTo(p.k*bl.kq, p.n*bl.nq)}
	if p.recs != nil {
		e.fusedLevel(p, f, alpha, beta)
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
	var buf [4]matrix.Term
	ts := buf[:0]
	for _, t := range o.terms {
		mt := matrix.Term{G: t.coeff(beta), Dst: t.src == o.dst}
		if !mt.Dst {
			mt.X = f.view(t.src).Slice(0, 0, dst.Rows, dst.Cols)
		}
		ts = append(ts, mt)
	}
	id := phAS
	if o.dst.shape == shapeC {
		id = phQ
	}
	e.lin(id, dst, ts...)
}

// lin runs matrix.Lin under a phase bracket charged by the cost rule
// above; dst ← 1·dst runs nothing and is not charged. On an engine whose
// submitter has w > 1 workers and a dst of at least w columns the pass
// runs as w tasks, one per column band of dst (linBands); otherwise it
// runs inline. Lin is elementwise, so the bands write the bits one call
// does.
func (e *engine) lin(id phase.ID, dst *matrix.Dense, ts ...matrix.Term) {
	if len(ts) == 1 && ts[0].Dst && ts[0].G == 1 {
		return
	}
	var flops, reads int64
	for _, t := range ts {
		switch {
		case t.G == 0:
			continue
		case reads == 0 && t.G == 1:
		case reads == 0 || t.G == 1 || t.G == -1:
			flops++
		default:
			flops += 2
		}
		reads++
	}
	n := int64(dst.Rows) * int64(dst.Cols)
	s := e.prof.Begin(id)
	if w := linBands(e.sub, dst.Rows, dst.Cols); w > 0 {
		e.linTasks(w, dst, ts)
	} else {
		matrix.Lin(dst, ts...)
	}
	s.End(flops*n, 8*(reads+1)*n)
}

// linBands is the number of column bands a pass over an r×c destination
// splits into on sub: one per worker, or 0 (the pass runs inline) with no
// submitter, one worker, no rows or fewer columns than workers.
func linBands(sub sched.Submitter, r, c int) int {
	if sub == nil || r == 0 {
		return 0
	}
	if w := sub.Workers(); w > 1 && c >= w {
		return w
	}
	return 0
}

// linTasks runs matrix.Lin(dst, ts...) as w tasks on the engine's
// submitter: band i writes columns [i·c/w, (i+1)·c/w) of dst's c from the
// same columns of every source. A canceled call skips the bands not yet
// started.
func (e *engine) linTasks(w int, dst *matrix.Dense, ts []matrix.Term) {
	d := sched.NewDAG()
	for i := range w {
		lo, hi := i*dst.Cols/w, (i+1)*dst.Cols/w
		band := dst.Slice(0, lo, dst.Rows, hi-lo)
		bt := make([]matrix.Term, len(ts))
		for j, t := range ts {
			bt[j] = t
			if !t.Dst {
				bt[j].X = t.X.Slice(0, lo, dst.Rows, hi-lo)
			}
		}
		d.Add(func(*sched.Worker) { matrix.Lin(band, bt...) })
	}
	_ = e.sub.Run(e.runCtx(), d)
}

// fusedLevel streams a fused level's records through the kernel's hooks
// in one call: each record's operand terms and destinations are the
// stored parts of their blocks — a block overhanging the matrices carries
// its shorter extent, and the kernel reads the rest as +0.0 and writes
// none of it. No Strassen temporaries. β goes to the kernel, which scales
// each C block once before the records write it (in the first Ã block's
// share tasks on a multi-worker runtime); the blocks are identical or
// disjoint, as it requires.
func (e *engine) fusedLevel(p *program, f *frame, alpha, beta float64) {
	fc := fusedCalls.Get().(*fusedCall)
	defer fc.release()
	nt, nd := 0, 0
	for _, rec := range p.recs {
		nt += len(rec.a) + len(rec.b)
		nd += len(rec.dst)
	}
	// Sized up front: the records' slices point into these arrays.
	fc.terms = grow(fc.terms, nt)
	fc.dests = grow(fc.dests, nd)
	fc.blocks = grow(fc.blocks, p.m*p.n)
	fc.prods = grow(fc.prods, len(p.recs))
	for i := range p.m * p.n {
		q := f.dense(slot{shape: shapeC, idx: i})
		fc.blocks = append(fc.blocks, kernel.Dest{Data: q.Data, Ld: q.Stride, Rows: q.Rows, Cols: q.Cols})
	}
	aOp := kernel.Operand{Ld: f.a.Stride, Trans: f.a.Trans}
	bOp := kernel.Operand{Ld: f.b.Stride, Trans: f.b.Trans}
	for _, rec := range p.recs {
		t0 := len(fc.terms)
		for _, t := range rec.a {
			fc.terms = append(fc.terms, kernelTerm(f.a.Slice(t.r*f.mq, t.c*f.kq, f.mq, f.kq), t.g))
		}
		t1 := len(fc.terms)
		for _, t := range rec.b {
			fc.terms = append(fc.terms, kernelTerm(f.b.Slice(t.r*f.kq, t.c*f.nq, f.kq, f.nq), t.g))
		}
		d0 := len(fc.dests)
		for _, t := range rec.dst {
			d := fc.blocks[t.r*f.gn+t.c]
			d.Coeff = t.g
			fc.dests = append(fc.dests, d)
		}
		aOp.Terms, bOp.Terms = fc.terms[t0:t1:t1], fc.terms[t1:len(fc.terms):len(fc.terms)]
		fc.prods = append(fc.prods, kernel.Product{A: aOp, B: bOp, Dests: fc.dests[d0:len(fc.dests):len(fc.dests)]})
	}
	e.fk.FusedMulAddTasks(e.sub, f.mq, f.nq, f.kq, alpha, beta, fc.prods)
}

// fusedCall is the product list of one kernel call — a fused level's
// records, or a base case's one product (baseGemm) — as the kernel takes
// it: the products and the terms and destinations they slice. Calls reuse
// them through fusedCalls, so a call's list costs no garbage in steady
// state.
type fusedCall struct {
	prods  []kernel.Product
	terms  []kernel.Term
	dests  []kernel.Dest
	blocks []kernel.Dest // the level's C blocks, by grid index
}

var fusedCalls = sync.Pool{New: func() any { return new(fusedCall) }}

// release drops the list's references to the call's matrices and returns
// it to the pool.
func (fc *fusedCall) release() {
	clear(fc.prods)
	clear(fc.terms)
	clear(fc.dests)
	clear(fc.blocks)
	fusedCalls.Put(fc)
}

// grow returns s emptied, with room for n elements.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// kernelTerm is a block view as a fused operand term: its stored part, with
// that part's extent.
func kernelTerm(v matrix.View, g float64) kernel.Term {
	s := v.Stored()
	return kernel.Term{Data: s.Data, Coeff: g, Rows: s.Rows, Cols: s.Cols}
}
