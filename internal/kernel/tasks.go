package kernel

// The packed loop nest: the one loop every call of the kernel runs. A
// call is a list of products (Product: a combination of terms per operand
// and a list of destinations); MulAdd and FusedMulAdd are the one-product
// call, MulAdd's operands each one coefficient-1 term at its full extent
// and C its one coefficient-1 destination, and a fused Strassen level
// hands the kernel all of its records at once. The products' packers form
// each Ã/B̃ word from the terms, a single unit term as a plain copy, and
// the write-out updates every destination (fused.go). The call is a list
// of steps: for each product, for each (jc, pc) panel, a KC×NC slice of
// B̃ swept against every MC-row block of Ã. Each NR-column B̃ sliver is
// packed just before the first block's sweep reads it, and the nest keeps
// only what a later block reads again: one KC×NR sliver when the rows fit
// one MC block — every fused Strassen node's records and every leaf below
// the MC block — the whole KC×NC panel when they span several (bCols). GotoBLAS
// and BLIS pack a whole panel to spread its cost over the row blocks; one
// block has nothing to spread it over, and the sliver stays in L1 for its
// sweep. A sequential call runs the nest inline and draws LeafWorkspace.
//
// A threaded call threads the jr loop over B̃ slivers, as BLIS does
// (Huang et al., arXiv:1605.01078, §parallelization), not the ic loop over
// rows: each step's slivers are dealt to column bands, one per worker, and
// each band packs its own slivers just before it sweeps them — the
// sequential nest restricted to the band's columns — into its own KC×NR
// sliver, or into its slivers' place in the one shared KC×NC panel when
// the rows span several blocks. Column bands write disjoint columns of C,
// so they need no synchronization on C. Each Ã block is packed once by
// share tasks, each an equal, MR-aligned share of the block's register
// panels, into one of two MC×KC buffers by turns, so that the next block's
// Ã is packed while this one's is swept. The blocks of all steps, in
// order, run as one task DAG whose edges are: every Ã share of block g
// waits for every sweep of block g−2, the last readers of its buffer;
// band t's sweep of block g waits for every Ã share of block g and for
// band t's sweep of block g−1 (its sliver buffer, its account and its
// columns of C: steps over the same columns deal them alike, so each
// column of C is written by one band's chain in step order); and when the
// bands share the panel, the first block of a step
// also waits for every sweep of the last step, whose bands may have dealt
// the panel's slivers differently. A band that finishes early packs the
// next block's Ã instead of waiting at a barrier. The draw is
// CallWorkspace: a call of a single block packs one Ã buffer.
//
// β scales each distinct destination once before the nest writes it
// (scale): over all rows at the start of a sequential call, stacked
// destinations as one block, and over a row partition in the first
// block's Ã share tasks of a threaded one, so no serial pass over C
// precedes them.
//
// Band and share edges fall on register-tile edges, packing a share of
// slivers or panels forms the words packing the whole block does, and the
// steps run in order, so every C element sees the same packed words, the
// same tile and the same summation and product order whatever the split:
// results are bit-for-bit identical across worker counts.

import (
	"context"
	"sync"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/phase"
	"repro/internal/sched"
)

// bandCount is how many column bands a call of m rows whose steps are at
// most ncE columns wide splits into on threads workers: one per worker, at
// most one per NR-column sliver of its widest step. A call whose rows are
// one register panel is not split: each band's sweep would be one MR-row
// strip, and each band past the first would draw a sliver for it. Below
// two bands the call runs sequentially.
func bandCount(m, ncE, mr, nr, threads int) int {
	if m <= mr {
		return 1
	}
	return min(threads, ncE/nr)
}

// share is part i of n items dealt in whole units of unit (the last one
// may be ragged) to parts parts: [lo, hi), each part an equal count of
// units. With parts at most the unit count, no part is empty.
func share(i, parts, n, unit int) (lo, hi int) {
	units := (n + unit - 1) / unit
	return i * units / parts * unit, min((i+1)*units/parts*unit, n)
}

// parts is how many parts, at most most, n items in units of unit are
// dealt to (share): no more than there are units, so that none is empty.
func parts(most, n, unit int) int {
	return min(most, (n+unit-1)/unit)
}

// leaf is one call of the packed loop nest: its live products, all of
// the logical shape m×n×kk, and its α and β.
type leaf struct {
	k           *Packed
	mi          *microImpl
	m, n, kk    int
	alpha, beta float64
	prof        *phase.Profiler

	prods []Product

	mcE, kcE, ncE int
}

// newLeaf resolves the blocking of an m×n×kk call.
func (k *Packed) newLeaf(m, n, kk int, alpha, beta float64) leaf {
	l := leaf{k: k, mi: k.impl(), m: m, n: n, kk: kk, alpha: alpha, beta: beta, prof: phase.Active()}
	l.mcE, l.kcE, l.ncE = k.effBlocks(l.mi, m, n, kk)
	return l
}

// bandAcct is one band's phase attribution and counters, and the tile
// buffer of its sweeps' buffered write-out.
type bandAcct struct {
	callAcct
	packedA, packedB, tiles int64
	tile                    tileBuf
}

// step is one (product, jc, pc) step of the nest: product rec, columns
// [jc, jc+nb) of C and the KC slice [pc, pc+kb) of the inner dimension.
type step struct{ rec, jc, pc, nb, kb int }

// steps is the call's step count.
func (l *leaf) steps() int {
	return stepCount(len(l.prods), l.n, l.kk, l.kcE, l.ncE)
}

// stepCount is the number of (product, jc, pc) steps of a call of
// products products of logical width n and depth kk at the effective
// blocking kcE×ncE.
func stepCount(products, n, kk, kcE, ncE int) int {
	return products * ((n + ncE - 1) / ncE) * ((kk + kcE - 1) / kcE)
}

// step returns step s: the products in order, each product's panels in
// the sequential nest's jc-then-pc order.
func (l *leaf) step(s int) step {
	nj, np := (l.n+l.ncE-1)/l.ncE, (l.kk+l.kcE-1)/l.kcE
	r, s := s/(nj*np), s%(nj*np)
	jc, pc := s/np*l.ncE, s%np*l.kcE
	return step{rec: r, jc: jc, pc: pc, nb: min(l.n-jc, l.ncE), kb: min(l.kk-pc, l.kcE)}
}

// scale applies dst ← β·dst (matrix.Lin: +0.0 at β = 0, dst unread) to
// rows [lo, hi) of each distinct destination of prods, clipped to the part
// of the first n columns it stores. When the rows are all of them, the
// destinations stacked down the same columns without a gap (stacked) are
// scaled as one taller block, so a fused level's C blocks take the pass
// of whole-column runs a whole C does: block-tall runs write slower. The
// pass is charged to kernel.fused_writeout at engine.lin's cost: a FLOP
// and 16 bytes an element, no FLOP and 8 bytes at β = 0, which writes
// only. At β = 1 it does nothing.
func scale(prof *phase.Profiler, prods []Product, lo, hi, n int, beta float64) {
	if beta == 1 {
		return
	}
	s := prof.Begin(phase.KernelFusedWriteout)
	var elems int64
	for r, p := range prods {
		for i := range p.Dests {
			d := &p.Dests[i]
			rows, cols := within(d.Rows, lo, hi-lo), within(d.Cols, 0, n)
			if rows <= 0 || cols <= 0 || claimed(prods, r, i, lo, hi, n) {
				continue
			}
			for e := under(prods, d, lo, hi, n); e != nil; e = under(prods, e, lo, hi, n) {
				rows += e.Rows
			}
			matrix.Lin(&matrix.Dense{Rows: rows, Cols: cols, Stride: d.Ld, Data: d.Data[lo : lo+(cols-1)*d.Ld+rows]}, matrix.Term{G: beta, Dst: true})
			elems += int64(rows) * int64(cols)
		}
	}
	if beta == 0 {
		s.End(0, 8*elems)
		return
	}
	s.End(elems, 16*elems)
}

// claimed reports whether the pass over prods scales product r's Dests[i]
// from another entry: an earlier one of the same destination (being
// identical or disjoint, destinations are known by their first element),
// or one it is stacked under.
func claimed(prods []Product, r, i, lo, hi, n int) bool {
	d := &prods[r].Dests[i]
	for q, p := range prods {
		for j := range p.Dests {
			e := &p.Dests[j]
			if (q < r || q == r && j < i) && len(e.Data) > 0 && &e.Data[0] == &d.Data[0] || stacked(e, d, lo, hi, n) {
				return true
			}
		}
	}
	return false
}

// under returns a destination of prods stacked under d, or nil.
func under(prods []Product, d *Dest, lo, hi, n int) *Dest {
	for q := range prods {
		for j := range prods[q].Dests {
			if e := &prods[q].Dests[j]; stacked(d, e, lo, hi, n) {
				return e
			}
		}
	}
	return nil
}

// stacked reports whether w starts in the row just past u's last stored
// one, over the same columns at the same leading dimension, u's capacity
// reaching as far as w's, and rows [lo, hi) are all the rows of both.
func stacked(u, w *Dest, lo, hi, n int) bool {
	return lo == 0 && u.Rows > 0 && hi >= max(u.Rows, w.Rows) && len(w.Data) > 0 && cap(u.Data)-u.Rows >= cap(w.Data) &&
		&u.Data[:u.Rows+1][u.Rows] == &w.Data[0] && u.Ld == w.Ld && within(u.Cols, 0, n) == within(w.Cols, 0, n)
}

// run executes the call: as a task DAG over sub's workers when its
// columns split into bands, inline otherwise.
func (l *leaf) run(sub sched.Submitter) {
	if bands := l.bands(sub); bands > 1 {
		l.runBands(sub, bands)
		return
	}
	l.runSeq()
}

// bands is how many column bands the call splits into on sub (bandCount):
// 0 without a submitter, below two when it runs sequentially.
func (l *leaf) bands(sub sched.Submitter) int {
	if sub == nil {
		return 0
	}
	return bandCount(l.m, l.ncE, l.mi.mr, l.mi.nr, sub.Workers())
}

// runSeq executes the call inline, packing B̃ as its sweeps first read
// it (sweepCols), and credits it to the kernel. It keeps the leaf and its
// products on the caller's stack.
func (l *leaf) runSeq() {
	ar := l.k.Arena()
	apack := ar.AllocUninit(l.mcE * l.kcE)
	defer ar.Free(apack)
	bpack := ar.AllocUninit(l.kcE * bCols(l.m, l.mcE, l.mi.nr, l.ncE, 1))
	defer ar.Free(bpack)
	scale(l.prof, l.prods, 0, l.m, l.n, l.beta)
	var acct bandAcct
	for s := range l.steps() {
		st := l.step(s)
		for ic := 0; ic < l.m; ic += l.mcE {
			mb := min(l.m-ic, l.mcE)
			l.packRows(&acct, apack, st, ic, 0, mb)
			l.sweepCols(&acct, apack, bpack, st, ic, mb, 0, st.nb)
		}
	}
	l.finish(acct)
}

// bCols is how many columns of a step's B̃ a call of m rows at the
// effective blocking mcE×ncE keeps on bands column bands: one nr-column
// sliver per band when the rows fit one MC block, so that each sliver is
// packed just before the one sweep that reads it; the whole panel
// otherwise, for every later block to sweep again, each band forming its
// own slivers of it.
func bCols(m, mcE, nr, ncE, bands int) int {
	if m <= mcE {
		return bands * nr
	}
	return ncE
}

// pipeline is a threaded call's shared state: a heap copy of the leaf, so
// a sequential call's stays on its caller's stack, and the accounts the
// tasks fill, one per chain of tasks the DAG's edges order: column band
// t's sweeps, and Ã share j's of the blocks packed into either buffer.
type pipeline struct {
	leaf
	accts []bandAcct
}

// runBands executes the call as one task DAG on sub (see the file
// comment) and credits it to the kernel. The buffers go back to the arena
// once the DAG has drained, also when a task panicked.
func (l *leaf) runBands(sub sched.Submitter, bands int) {
	ar := l.k.Arena()
	mr, nr := l.mi.mr, l.mi.nr
	aw := l.mcE * l.kcE
	apack := ar.AllocUninit(aBufs(l.steps(), l.m, l.mcE) * aw)
	defer ar.Free(apack)
	bpack := ar.AllocUninit(l.kcE * bCols(l.m, l.mcE, nr, l.ncE, bands))
	defer ar.Free(bpack)
	sliver := l.kcE * nr
	keep := l.m > l.mcE
	// accts[t] is column band t's, accts[(1+q)·bands+j] Ã share j's of the
	// blocks packed into buffer q.
	p := &pipeline{leaf: *l, accts: make([]bandAcct, 3*bands)}

	d := sched.NewDAG()
	var shares, deps []*sched.Node
	var sweeps [2][]*sched.Node // of the last two blocks, by buffer
	chain := make([]*sched.Node, bands)
	g := 0
	for s := range l.steps() {
		st := l.step(s)
		nb := parts(bands, st.nb, nr)
		for ic := 0; ic < l.m; ic, g = ic+l.mcE, g+1 {
			mb := min(l.m-ic, l.mcE)
			na := parts(bands, mb, mr)
			q := g % 2
			abuf := apack[q*aw : (q+1)*aw]
			shares = shares[:0]
			for j := range na {
				lo, hi := share(j, na, mb, mr)
				acct := &p.accts[(1+q)*bands+j]
				first := g == 0
				plo, phi := share(j, na, l.m, mr)
				shares = append(shares, d.Add(func(*sched.Worker) {
					if first {
						scale(p.prof, p.prods, plo, phi, p.n, p.beta)
					}
					p.packRows(acct, abuf, st, ic, lo, hi)
				}, sweeps[q]...))
			}
			prev := sweeps[1-q]
			sweeps[q] = sweeps[q][:0]
			for t := range nb {
				lo, hi := share(t, nb, st.nb, nr)
				acct, buf := &p.accts[t], bpack
				if !keep {
					buf = bpack[t*sliver : (t+1)*sliver]
				}
				deps = append(deps[:0], shares...)
				if chain[t] != nil {
					deps = append(deps, chain[t])
				}
				if keep && ic == 0 {
					// The step's bands may deal the shared panel's slivers
					// apart from the last step's, which sweep them still.
					deps = append(deps, prev...)
				}
				chain[t] = d.Add(func(*sched.Worker) {
					p.sweepCols(acct, abuf, buf, st, ic, mb, lo, hi)
				}, deps...)
				sweeps[q] = append(sweeps[q], chain[t])
			}
		}
	}
	_ = sub.Run(context.Background(), d)
	for _, a := range p.accts {
		l.finish(a)
	}
}

// aBufs is how many Ã buffers a threaded call of steps steps of m rows at
// MC block mcE packs into: two, so that one block's Ã is packed while the
// last one's is swept, or one when the call has a single block.
func aBufs(steps, m, mcE int) int {
	return min(2, steps*((m+mcE-1)/mcE))
}

// packRows packs rows [lo, hi) — whole register panels, hi clipped to the
// block — of the mb-row block at row ic of step st's Ã into their place in
// apack.
func (l *leaf) packRows(acct *bandAcct, apack []float64, st step, ic, lo, hi int) {
	var t0 int64
	if l.prof != nil {
		t0 = phase.Now()
	}
	op := &l.prods[st.rec].A
	rows := hi - lo
	packAFused(l.mi, apack[lo*st.kb:], *op, ic+lo, st.pc, rows, st.kb)
	words := int64(rows) * int64(st.kb)
	if l.prof != nil {
		acct.pack(op, true, words, phase.Now()-t0)
	}
	acct.packedA += words
}

// sweepCols sweeps columns [lo, hi) of step st — whole NR-column
// slivers, hi clipped to the step — against the mb-row Ã block at row ic
// in apack, into every destination of the step's product. The first
// block's sweep packs each sliver just before it reads it: into its
// place in bpack when later blocks sweep the panel again, over the one
// sliver bpack holds when the rows are one block (bCols). A later block
// sweeps the packed slivers in one pass. Each sliver's packing is timed
// apart from its sweep.
func (l *leaf) sweepCols(acct *bandAcct, apack, bpack []float64, st step, ic, mb, lo, hi int) {
	pr := &l.prods[st.rec]
	var t0 int64
	if l.prof != nil {
		t0 = phase.Now()
	}
	if ic > 0 {
		l.sweep(acct, pr, apack, bpack[lo*st.kb:], ic, st.jc+lo, mb, hi-lo, st.kb, &t0)
		return
	}
	keep := l.m > l.mcE
	f := newFusedB(l.mi, pr.B, st.pc, st.jc, st.kb, st.nb)
	for jp := lo; jp < hi; jp += l.mi.nr {
		cols, dst := min(l.mi.nr, hi-jp), bpack
		if keep {
			dst = bpack[jp*st.kb:]
		}
		f.pack(dst, jp, jp+cols)
		words := int64(st.kb) * int64(cols)
		if l.prof != nil {
			t1 := phase.Now()
			acct.pack(&pr.B, false, words, t1-t0)
			t0 = t1
		}
		acct.packedB += words
		l.sweep(acct, pr, apack, dst, ic, st.jc+jp, mb, cols, st.kb, &t0)
	}
}

// sweep runs the macro kernel over the mb×nb block at (ic, jc) of every
// destination of pr and folds it into acct: when profiling, as the
// clock's advance since *t0, which it moves to the sweep's end.
func (l *leaf) sweep(acct *bandAcct, pr *Product, apack, bpack []float64, ic, jc, mb, nb, kb int, t0 *int64) {
	ft, et := macroKernelFused(l.mi, apack, bpack, pr.Dests, ic, jc, mb, nb, kb, l.alpha, &acct.tile)
	if l.prof != nil {
		t1 := phase.Now()
		acct.macro(l.mi, t1-*t0, mb, nb, kb, ft, et, len(pr.Dests))
		*t0 = t1
	}
	acct.tiles += ft + et
}

// finish folds one band's attribution into the profiler and its packed
// words and tiles into the kernel's counters.
func (l *leaf) finish(a bandAcct) {
	if l.prof != nil {
		a.flush(l.prof)
	}
	l.k.packAWords.Add(a.packedA)
	l.k.packBWords.Add(a.packedB)
	l.k.countTiles(l.mi, a.tiles)
}

// MulAddTasks is MulAdd with the columns split into bands over all of
// sub's workers, executed as scheduler tasks: the one-product call of the
// nest, its operands one coefficient-1 term each at their full extents
// and C one coefficient-1 destination. Every band packs and sweeps its
// own B̃ slivers, the Ã blocks are packed by share tasks, and the results
// are bit-for-bit MulAdd's. The arena draw is CallWorkspace: LeafWorkspace,
// plus one KC×NR sliver per band past the first when the rows fit one MC
// block.
//
// sub may be an external *sched.Runtime or the *sched.Worker handle of a
// running task — the tasks then go to the worker's own deque, the worker
// executes them itself and idle workers steal, which is what lets a
// multiply that runs inside a task (strassen.DGEFMMTask, the batch pool)
// thread its leaves without blocking the pool. With a nil submitter, a
// single-worker runtime, or a call of one NR-column sliver, it runs as
// MulAdd. A panic in a task reaches the caller once the DAG has drained.
func (k *Packed) MulAddTasks(sub sched.Submitter, transA, transB blas.Transpose, m, n, kk int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	s := singles.Get().(*single)
	defer s.release()
	s.a[0] = Term{Data: a, Coeff: 1, Rows: m, Cols: kk}
	s.b[0] = Term{Data: b, Coeff: 1, Rows: kk, Cols: n}
	s.c[0] = Dest{Data: c, Ld: ldc, Coeff: 1, Rows: m, Cols: n}
	s.prod[0] = Product{
		A:     Operand{Terms: s.a[:], Ld: lda, Trans: transA.IsTrans()},
		B:     Operand{Terms: s.b[:], Ld: ldb, Trans: transB.IsTrans()},
		Dests: s.c[:],
	}
	k.FusedMulAddTasks(sub, m, n, kk, alpha, 1, s.prod[:])
}

// single is the storage of a one-product call: the product, and MulAdd's
// terms and destination. A threaded call hands its products to tasks, so
// storage on the caller's stack would escape to the heap on every call;
// calls take it from singles instead, and the steady state allocates
// nothing.
type single struct {
	prod [1]Product
	a, b [1]Term
	c    [1]Dest
}

var singles = sync.Pool{New: func() any { return new(single) }}

// release drops the call's references to its matrices and returns s to
// the pool.
func (s *single) release() {
	*s = single{}
	singles.Put(s)
}

// FusedMulAddTasks runs every product of prods, in order, as one call of
// the loop nest: beta scales every distinct destination once, before any
// product writes it, and each product adds alpha·Ã·B̃ into every one of
// its destinations (FusedMulAdd); a fused Strassen level hands the kernel
// all of its records at once. All products share the logical shape
// m×n×kk, alpha and beta, and their destinations are identical or
// disjoint, as a Strassen level's C blocks are. A product with no A or B
// terms or no destinations adds nothing. Every live product counts once
// in Counters.
//
// On a multi-worker submitter the steps of all products run as one task
// DAG (see the file comment); every destination element is bit-for-bit
// what beta applied up front and then per-product FusedMulAdd calls in
// the same order produce, and the arena draw is CallWorkspace. It runs
// inline in the cases MulAddTasks runs as MulAdd.
func (k *Packed) FusedMulAddTasks(sub sched.Submitter, m, n, kk int, alpha, beta float64, prods []Product) {
	live := 0
	for _, p := range prods {
		if p.live() {
			live++
		}
	}
	if m <= 0 || n <= 0 || kk <= 0 || alpha == 0 || live == 0 {
		scale(phase.Active(), prods, 0, m, n, beta)
		return
	}
	if live < len(prods) {
		scale(phase.Active(), prods, 0, m, n, beta) // dead products' destinations too
		beta = 1
		kept := make([]Product, 0, live)
		for _, p := range prods {
			if p.live() {
				kept = append(kept, p)
			}
		}
		prods = kept
	}
	l := k.newLeaf(m, n, kk, alpha, beta)
	l.prods = prods
	l.run(sub)
	k.products.Add(int64(live))
}

// live reports whether the product contributes to its destinations.
func (p *Product) live() bool {
	return len(p.A.Terms) > 0 && len(p.B.Terms) > 0 && len(p.Dests) > 0
}

// CallWorkspace returns the exact packing workspace, in float64 words, one
// MulAddTasks (products = 1) or FusedMulAddTasks call of products products
// of the logical shape m×n×kk draws from the arena on a submitter of
// workers workers (0 without one). A sequential call draws LeafWorkspace.
// A threaded call draws its Ã buffers (aBufs: two MC×KC buffers, one for
// a call of a single block) and the B̃ its column bands keep (bCols): one
// KC×NR sliver per band when the rows fit one MC block, the one KC×NC
// panel they share otherwise. strassen.PlanFor folds the maximum over a
// plan's calls into Plan.KernelWords.
func (k *Packed) CallWorkspace(workers, products, m, n, kk int) int64 {
	if m <= 0 || n <= 0 || kk <= 0 || products < 1 {
		return 0
	}
	mi := k.impl()
	mcE, kcE, ncE := k.effBlocks(mi, m, n, kk)
	bands, abufs := bandCount(m, ncE, mi.mr, mi.nr, workers), 1
	if bands > 1 {
		abufs = aBufs(stepCount(products, n, kk, kcE, ncE), m, mcE)
	}
	return int64(abufs*mcE)*int64(kcE) + int64(kcE)*int64(bCols(m, mcE, mi.nr, ncE, max(bands, 1)))
}
