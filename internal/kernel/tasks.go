package kernel

// The packed loop nest, shared by MulAdd and FusedMulAdd and by their
// threaded forms. A call is a list of steps: for each product (a plain
// call is one product; a fused Strassen level hands the kernel all of its
// records at once), for each (jc, pc) panel, one B̃ panel and a sweep of
// every row of C against it. The threading point follows the BLIS analysis
// (Huang et al., arXiv:1605.01078, §parallelization): the jc/pc loops
// carry the B̃ panel and the KC-accumulation order, so the ic loop — whose
// iterations write disjoint row bands of C and share B̃ read-only — is
// where parallelism is free of synchronization on C.
//
// A threaded call splits the rows into MR-aligned bands, and the bands
// share the one MC×KC Ã budget of the sequential nest: each packs its rows
// a slice of that buffer at a time. The steps run as one task DAG, a
// pipeline over two B̃ buffers: while the bands of step s sweep one buffer,
// the B̃ of step s+1 is packed into the other by tasks that each take a
// share of its NR-column slivers. Band t of step s waits for the packing
// of step s and for band t of step s−1 (its Ã slice and its rows of C);
// the packing of step s waits for every band of step s−2, the last reader
// of its buffer. Step 0's B̃ is packed by the calling goroutine before the
// DAG starts, so a one-step call draws the Ã buffer and one KC×NC B̃ panel;
// a call of more steps draws a second B̃ panel (CallWorkspace). Each
// band's chain starts with the call's pre pass over its rows of C (a fused
// level's β), so no serial pass over C precedes the bands.
//
// A sequential call is the same nest with one band, every row packed an
// MC block at a time into the whole Ã buffer, run inline. It packs each
// NR-column B̃ sliver just before the first block's sweep reads it, and
// keeps only what a later block reads again: the whole KC×NC panel when
// the rows span several MC blocks, one KC×NR sliver when they fit one —
// every fused Strassen node's records and every leaf below the MC block.
// Its draw is LeafWorkspace (seqBCols). GotoBLAS and BLIS pack a whole
// panel to spread its cost over the row blocks; one block has nothing to
// spread it over, and the sliver stays in L1 for its sweep.
//
// Band edges fall on register-tile edges, packing a share of slivers forms
// the words packing the whole panel does, and each band takes its steps in
// order, so every C element sees the same packed words, the same tile and
// the same summation and product order whatever the split: results are
// bit-for-bit identical across worker counts.

import (
	"context"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/phase"
	"repro/internal/sched"
)

// rowBand is one task's share of a threaded call: rows [lo, hi), packed h
// rows at a time into the Ã buffer's rows [off, off+h).
type rowBand struct{ lo, hi, h, off int }

// bandCount is how many row bands a call of m rows splits into on threads
// workers with an mcE-row Ã buffer: one per worker, at most one per
// register panel of the rows and of the buffer. Below two the call runs
// sequentially.
func bandCount(m, mcE, mr, threads int) int {
	return min(threads, (m+mr-1)/mr, mcE/mr)
}

// rowBands splits m rows into bandCount MR-aligned bands whose Ã slices
// partition the mcE-row Ã buffer (nil when fewer than two bands result).
// Band t takes an equal share of the m rows' register panels and of the
// buffer's.
func rowBands(m, mcE, mr, threads int) []rowBand {
	t := bandCount(m, mcE, mr, threads)
	if t < 2 {
		return nil
	}
	panels, bufPanels := (m+mr-1)/mr, mcE/mr
	out := make([]rowBand, t)
	for i := range out {
		p0, p1 := i*panels/t, (i+1)*panels/t
		s0, s1 := i*bufPanels/t, (i+1)*bufPanels/t
		out[i] = rowBand{lo: p0 * mr, hi: min(p1*mr, m), h: min(p1-p0, s1-s0) * mr, off: s0 * mr}
	}
	return out
}

// stepCount is the number of (product, jc, pc) steps of a call of
// products products of logical width n and depth kk at the effective
// blocking kcE×ncE.
func stepCount(products, n, kk, kcE, ncE int) int {
	return products * ((n + ncE - 1) / ncE) * ((kk + kcE - 1) / kcE)
}

// leaf is one call of the packed loop nest: MulAdd's operands, or the
// products of a fused call when fused is set — prods, or the one product
// of a FusedMulAdd call (one, held by value so that the call keeps nothing
// of its own on the heap).
type leaf struct {
	k        *Packed
	mi       *microImpl
	m, n, kk int
	alpha    float64
	prof     *phase.Profiler
	epoch    time.Time // the call's start, when profiling (clock)

	ta, tb        bool
	a, b, c       []float64
	lda, ldb, ldc int

	fused bool
	prods []Product
	one   Product
	pre   func(lo, hi int)

	mcE, kcE, ncE int
}

// newLeaf resolves the blocking of an m×n×kk call.
func (k *Packed) newLeaf(m, n, kk int, alpha float64) leaf {
	l := leaf{k: k, mi: k.impl(), m: m, n: n, kk: kk, alpha: alpha, prof: phase.Active()}
	if l.prof != nil {
		l.epoch = time.Now()
	}
	l.mcE, l.kcE, l.ncE = k.effBlocks(l.mi, m, n, kk)
	return l
}

// clock is the time since the call began in nanoseconds. It reads the
// monotonic clock alone, where time.Now reads the wall clock too: a
// profiled sequential call reads it twice per B̃ sliver.
func (l *leaf) clock() int64 {
	return int64(time.Since(l.epoch))
}

// bandAcct is one band's phase attribution and counters, and the tile
// buffer of its fused sweeps. The sweeps fold as fused ones; a plain call
// has one destination, so they carry no write-out share. packFlops and
// packBytes are a fused call's packing arithmetic and traffic, which
// depend on each product's term counts.
type bandAcct struct {
	fusedAcct
	packANS, packBNS        int64
	packedA, packedB, tiles int64
	packFlops, packBytes    int64
	tile                    tileBuf
}

// step is one (product, jc, pc) step of the nest: product rec, columns
// [jc, jc+nb) of C and the KC slice [pc, pc+kb) of the inner dimension.
type step struct{ rec, jc, pc, nb, kb int }

// steps is the call's step count.
func (l *leaf) steps() int {
	return stepCount(max(len(l.prods), 1), l.n, l.kk, l.kcE, l.ncE)
}

// product is a fused call's product r.
func (l *leaf) product(r int) *Product {
	if l.prods == nil {
		return &l.one
	}
	return &l.prods[r]
}

// step returns step s: the products in order, each product's panels in
// the sequential nest's jc-then-pc order.
func (l *leaf) step(s int) step {
	nj, np := (l.n+l.ncE-1)/l.ncE, (l.kk+l.kcE-1)/l.kcE
	r, s := s/(nj*np), s%(nj*np)
	jc, pc := s/np*l.ncE, s%np*l.kcE
	return step{rec: r, jc: jc, pc: pc, nb: min(l.n-jc, l.ncE), kb: min(l.kk-pc, l.kcE)}
}

// run executes the call: as a task pipeline over sub's workers when its
// rows split into bands, inline otherwise.
func (l *leaf) run(sub sched.Submitter) {
	if bands := l.k.bands(l.mi, sub, l.m, l.n, l.kk); bands != nil {
		l.runBands(sub, bands)
		return
	}
	l.runSeq()
}

// bands resolves the band split of a call, or nil when it runs
// sequentially: no submitter, one worker, or one register panel.
func (k *Packed) bands(mi *microImpl, sub sched.Submitter, m, n, kk int) []rowBand {
	if sub == nil {
		return nil
	}
	mcE, _, _ := k.effBlocks(mi, m, n, kk)
	return rowBands(m, mcE, mi.mr, sub.Workers())
}

// runSeq executes the call inline, packing B̃ as its sweeps first read
// it (band), and credits it to the kernel. It keeps the leaf and its
// products on the caller's stack.
func (l *leaf) runSeq() {
	ar := l.k.Arena()
	apack := ar.AllocUninit(l.mcE * l.kcE)
	bpack := ar.AllocUninit(l.kcE * seqBCols(l.m, l.mcE, l.mi.nr, l.ncE))
	if l.pre != nil {
		l.pre(0, l.m)
	}
	var acct bandAcct
	whole := rowBand{hi: l.m, h: l.mcE}
	for s := range l.steps() {
		l.band(&acct, whole, apack, bpack, l.step(s), true)
	}
	ar.Free(bpack)
	ar.Free(apack)
	l.finish(acct)
}

// seqBCols is how many columns of a step's B̃ the sequential nest keeps
// for a call of m rows at the effective blocking mcE×ncE: one nr-column
// sliver when the rows fit one MC block, so that each sliver is packed
// just before the one sweep that reads it; the whole panel otherwise, for
// every later block to sweep again.
func seqBCols(m, mcE, nr, ncE int) int {
	if m <= mcE {
		return nr
	}
	return ncE
}

// pipeline is a threaded call's shared state: a heap copy of the leaf, so
// a sequential call's stays on its caller's stack, and the accounts the
// tasks fill. Band t's tasks run in a chain and own accts[t]; packing
// tasks of different steps may overlap, so they fold into packs under mu.
type pipeline struct {
	leaf
	accts []bandAcct
	mu    sync.Mutex
	packs bandAcct
}

// runBands executes the call as one task DAG on sub (see the file
// comment) and credits it to the kernel.
func (l *leaf) runBands(sub sched.Submitter, bands []rowBand) {
	ar := l.k.Arena()
	steps := l.steps()
	apack := ar.AllocUninit(l.mcE * l.kcE)
	var bpack [2][]float64
	for i := range min(steps, 2) {
		bpack[i] = ar.AllocUninit(l.kcE * l.ncE)
	}
	p := &pipeline{leaf: *l, accts: make([]bandAcct, len(bands))}
	st0 := l.step(0)
	p.packB(&p.packs, bpack[0], st0, 0, st0.nb)

	// The band nodes of step s are nodes[s%3]: those of steps s−1 and s−2
	// are the other two.
	d := sched.NewDAG()
	var nodes [3][]*sched.Node
	for i := range nodes {
		nodes[i] = make([]*sched.Node, len(bands))
	}
	var packs, deps []*sched.Node
	nr := l.mi.nr
	for s := range steps {
		st, buf := l.step(s), bpack[s%2]
		cur, last, before := nodes[s%3], nodes[(s+2)%3], nodes[(s+1)%3]
		packs = packs[:0]
		if s > 0 {
			if s < 2 {
				before = nil
			}
			slivers := (st.nb + nr - 1) / nr
			shares := min(len(bands), slivers)
			for j := range shares {
				lo, hi := j*slivers/shares*nr, min((j+1)*slivers/shares*nr, st.nb)
				packs = append(packs, d.Add(func(*sched.Worker) { p.packShare(buf, st, lo, hi) }, before...))
			}
		}
		for t, bd := range bands {
			ap := apack[bd.off*l.kcE : (bd.off+bd.h)*l.kcE]
			acct := &p.accts[t]
			deps = append(deps[:0], packs...)
			first := s == 0
			if !first {
				deps = append(deps, last[t])
			}
			cur[t] = d.Add(func(*sched.Worker) {
				if first && p.pre != nil {
					p.pre(bd.lo, bd.hi)
				}
				p.band(acct, bd, ap, buf, st, false)
			}, deps...)
		}
	}
	_ = sub.Run(context.Background(), d)

	for i := min(steps, 2) - 1; i >= 0; i-- {
		ar.Free(bpack[i])
	}
	ar.Free(apack)
	a0 := &p.accts[0]
	a0.packBNS += p.packs.packBNS
	a0.packedB += p.packs.packedB
	a0.packFlops += p.packs.packFlops
	a0.packBytes += p.packs.packBytes
	for _, a := range p.accts {
		l.finish(a)
	}
}

// packShare packs columns [lo, hi) of step st's B̃ into buf as one task.
func (p *pipeline) packShare(buf []float64, st step, lo, hi int) {
	var a bandAcct
	p.packB(&a, buf, st, lo, hi)
	p.mu.Lock()
	p.packs.packBNS += a.packBNS
	p.packs.packedB += a.packedB
	p.packs.packFlops += a.packFlops
	p.packs.packBytes += a.packBytes
	p.mu.Unlock()
}

// packB forms columns [lo, hi) of step st's B̃ — whole NR-column slivers,
// hi clipped to the panel — into their place in bpack.
func (l *leaf) packB(acct *bandAcct, bpack []float64, st step, lo, hi int) {
	var t0 int64
	if l.prof != nil {
		t0 = l.clock()
	}
	f := l.stepB(st)
	l.packSlivers(acct, st, &f, bpack[lo*st.kb:], lo, hi)
	if l.prof != nil {
		acct.packBNS += l.clock() - t0
	}
}

// stepB sets up step st's B̃ for packing once, so that the sequential
// nest can form it a sliver at a time: a fused product's B operand. A
// plain call's B needs no setup.
func (l *leaf) stepB(st step) (f fusedB) {
	if l.fused {
		f = newFusedB(l.mi, l.product(st.rec).B, st.pc, st.jc, st.kb, st.nb)
	}
	return f
}

// packSlivers forms columns [lo, hi) of step st's B̃, set up as f, into
// dst, which holds the sliver at column lo at its start, and counts the
// words.
func (l *leaf) packSlivers(acct *bandAcct, st step, f *fusedB, dst []float64, lo, hi int) {
	words := int64(st.kb) * int64(hi-lo)
	if l.fused {
		f.pack(dst, lo, hi)
		acct.packTerms(len(f.op.Terms), words)
	} else {
		packB(l.mi.nr, dst, l.b, l.ldb, l.tb, st.pc, st.jc+lo, st.kb, hi-lo)
	}
	acct.packedB += words
}

// packTerms counts the arithmetic and traffic of words packed words of a
// fused operand of terms terms: terms−1 adds per word, and (terms+1)·8
// bytes (every term read once, the word written).
func (a *bandAcct) packTerms(terms int, words int64) {
	a.packFlops += int64(terms-1) * words
	a.packBytes += int64(terms+1) * 8 * words
}

// band packs band bd's rows of step st into apack, bd.h rows at a time,
// and sweeps each block against B̃ into C (every destination of the
// product when fused). With packB (the sequential nest, whose one band
// covers every row) it also packs B̃: each nr-column sliver just before
// the first block's sweep reads it, into its place in bpack when a later
// block sweeps the panel again, over the one sliver bpack holds when the
// band is one block (seqBCols). Each sliver's packing is timed apart from
// its sweep.
func (l *leaf) band(acct *bandAcct, bd rowBand, apack, bpack []float64, st step, packB bool) {
	mi := l.mi
	var pr *Product
	if l.fused {
		pr = l.product(st.rec)
	}
	var f fusedB
	if packB {
		f = l.stepB(st)
	}
	keep := bd.hi-bd.lo > bd.h
	var t0 int64
	for ic := bd.lo; ic < bd.hi; ic += bd.h {
		mb := min(bd.hi-ic, bd.h)
		if l.prof != nil {
			t0 = l.clock()
		}
		if pr != nil {
			packAFused(mi, apack, pr.A, ic, st.pc, mb, st.kb)
			acct.packTerms(len(pr.A.Terms), int64(mb)*int64(st.kb))
		} else {
			packA(mi.mr, apack, l.a, l.lda, l.ta, ic, st.pc, mb, st.kb)
		}
		if l.prof != nil {
			t1 := l.clock()
			acct.packANS += t1 - t0
			t0 = t1
		}
		acct.packedA += int64(mb) * int64(st.kb)
		if !packB || ic > bd.lo {
			l.sweep(acct, pr, apack, bpack, ic, st.jc, mb, st.nb, st.kb, &t0)
			continue
		}
		for jp := 0; jp < st.nb; jp += mi.nr {
			cols, dst := min(mi.nr, st.nb-jp), bpack
			if keep {
				dst = bpack[jp*st.kb:]
			}
			l.packSlivers(acct, st, &f, dst, jp, jp+cols)
			if l.prof != nil {
				t1 := l.clock()
				acct.packBNS += t1 - t0
				t0 = t1
			}
			l.sweep(acct, pr, apack, dst, ic, st.jc+jp, mb, cols, st.kb, &t0)
		}
	}
}

// sweep runs the macro kernel over the mb×nb block at (ic, jc) of C, or
// of every destination of pr, and folds it into acct: when profiling, as
// the clock's advance since *t0, which it moves to the sweep's end.
func (l *leaf) sweep(acct *bandAcct, pr *Product, apack, bpack []float64, ic, jc, mb, nb, kb int, t0 *int64) {
	var ft, et int64
	nd := 1
	if pr != nil {
		ft, et = macroKernelFused(l.mi, apack, bpack, pr.Dests, ic, jc, mb, nb, kb, l.alpha, &acct.tile)
		nd = len(pr.Dests)
	} else {
		ft, et = macroKernel(l.mi, apack, bpack, l.c, l.ldc, ic, jc, mb, nb, kb, l.alpha)
	}
	if l.prof != nil {
		t1 := l.clock()
		acct.macro(l.mi, t1-*t0, mb, nb, kb, ft, et, nd)
		*t0 = t1
	}
	acct.tiles += ft + et
}

// finish folds one band's attribution into the profiler and its packed
// words and tiles into the kernel's counters.
func (l *leaf) finish(a bandAcct) {
	switch {
	case l.prof == nil:
	case l.fused:
		a.packNS = a.packANS + a.packBNS
		a.fusedAcct.flush(l.prof, a.packFlops, a.packBytes)
	default:
		pa := phaseAcct{sweepAcct: a.sweepAcct, packANS: a.packANS, packBNS: a.packBNS}
		pa.flush(l.prof, a.packedA, a.packedB)
	}
	l.k.packAWords.Add(a.packedA)
	l.k.packBWords.Add(a.packedB)
	l.k.countTiles(l.mi, a.tiles)
}

// MulAddTasks is MulAdd with the rows split into bands over all of sub's
// workers, executed as scheduler tasks: the one-product case of the
// pipeline in the file comment. Every band packs its own rows into its
// slice of the Ã buffer, and the results are bit-for-bit MulAdd's. The
// arena draw is CallWorkspace: LeafWorkspace, plus one B̃ panel when the
// call threads and has more than one (jc, pc) panel.
//
// sub may be an external *sched.Runtime or the *sched.Worker handle of a
// running task — bands then go to the worker's own deque, the worker
// executes them itself and idle workers steal, which is what lets a
// multiply that runs inside a task (strassen.DGEFMMTask, the batch pool)
// thread its leaves without blocking the pool. With
// a nil submitter, fewer than two bands, or a single-worker runtime, it
// runs as MulAdd.
func (k *Packed) MulAddTasks(sub sched.Submitter, transA, transB blas.Transpose, m, n, kk int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m <= 0 || n <= 0 || kk <= 0 || alpha == 0 {
		return
	}
	l := k.newLeaf(m, n, kk, alpha)
	l.ta, l.tb = transA.IsTrans(), transB.IsTrans()
	l.a, l.b, l.c, l.lda, l.ldb, l.ldc = a, b, c, lda, ldb, ldc
	l.run(sub)
	k.mulAdds.Add(1)
}

// FusedMulAddTasks runs FusedMulAdd for every product of prods, in order,
// as one call of the loop nest: a fused Strassen level hands the kernel
// all of its records at once. All products share the logical shape m×n×kk
// and alpha. pre, when non-nil, runs once over every row band [lo, hi) of
// [0, m) before the band's first write — with the bands of a threaded call
// at the head of each band's task chain, inline over [0, m) otherwise; a
// Strassen level applies β to those rows of every C block there. A
// product with no A or B terms or no destinations contributes nothing.
//
// On a multi-worker submitter the steps of all products run as one task
// pipeline (see the file comment); every destination element is
// bit-for-bit what per-product FusedMulAdd calls in the same order
// produce, and the arena draw is CallWorkspace of the product count. It
// runs inline in the cases MulAddTasks runs as MulAdd.
func (k *Packed) FusedMulAddTasks(sub sched.Submitter, m, n, kk int, alpha float64, prods []Product, pre func(lo, hi int)) {
	l, ok := k.fusedLeaf(m, n, kk, alpha, prods, pre)
	if !ok {
		return
	}
	l.run(sub)
	k.fusedMulAdds.Add(int64(len(l.prods)))
}

// fusedLeaf resolves a fused call, dropping products that contribute
// nothing. It reports false, after running pre over all m rows, when
// nothing is left to multiply.
func (k *Packed) fusedLeaf(m, n, kk int, alpha float64, prods []Product, pre func(lo, hi int)) (leaf, bool) {
	live := 0
	for _, p := range prods {
		if p.live() {
			live++
		}
	}
	if m <= 0 || n <= 0 || kk <= 0 || alpha == 0 || live == 0 {
		if pre != nil && m > 0 {
			pre(0, m)
		}
		return leaf{}, false
	}
	if live < len(prods) {
		kept := make([]Product, 0, live)
		for _, p := range prods {
			if p.live() {
				kept = append(kept, p)
			}
		}
		prods = kept
	}
	l := k.newLeaf(m, n, kk, alpha)
	l.fused, l.prods, l.pre = true, prods, pre
	return l, true
}

// live reports whether the product contributes to its destinations.
func (p *Product) live() bool {
	return len(p.A.Terms) > 0 && len(p.B.Terms) > 0 && len(p.Dests) > 0
}

// CallWorkspace returns the exact packing workspace, in float64 words, one
// MulAddTasks (products = 1) or FusedMulAddTasks call of products products
// of the logical shape m×n×kk draws from the arena on a submitter of
// workers workers (0 without one): LeafWorkspace when the call runs
// sequentially; when its rows split into bands, the Ã panel the bands
// share plus one KC×NC B̃ panel, or two when the call has more than one
// step — the buffer the next step's B̃ packs into while the bands sweep
// this one's. strassen.PlanFor folds the maximum over a plan's calls into
// Plan.KernelWords.
func (k *Packed) CallWorkspace(workers, products, m, n, kk int) int64 {
	if m <= 0 || n <= 0 || kk <= 0 || products < 1 {
		return 0
	}
	mi := k.impl()
	mcE, kcE, ncE := k.effBlocks(mi, m, n, kk)
	if bandCount(m, mcE, mi.mr, workers) < 2 {
		return k.LeafWorkspace(m, n, kk)
	}
	panels := int64(1)
	if stepCount(products, n, kk, kcE, ncE) > 1 {
		panels = 2
	}
	return int64(mcE)*int64(kcE) + panels*int64(kcE)*int64(ncE)
}
