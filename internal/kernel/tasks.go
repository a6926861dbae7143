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
// DAG starts, so a one-step call draws exactly LeafWorkspace; a call of
// more steps draws one more B̃ panel (CallWorkspace). Each band's chain
// starts with the call's pre pass over its rows of C (a fused level's β),
// so no serial pass over C precedes the bands. A sequential call is the
// same nest with one band, every row packed an MC block at a time into the
// whole buffer, run inline over one B̃ buffer.
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
	l.mcE, l.kcE, l.ncE = k.effBlocks(l.mi, m, n, kk)
	return l
}

// bandAcct is one band's phase attribution and counters. The sweeps fold
// as fused ones; a plain call has one destination, so they carry no
// write-out share. packFlops and packBytes are a fused call's packing
// arithmetic and traffic, which depend on each product's term counts.
type bandAcct struct {
	fusedAcct
	packANS, packBNS        int64
	packedA, packedB, tiles int64
	packFlops, packBytes    int64
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

// runSeq executes the call inline, over one B̃ buffer, and credits it to
// the kernel. It keeps the leaf and its products on the caller's stack.
func (l *leaf) runSeq() {
	ar := l.k.Arena()
	apack := ar.AllocUninit(l.mcE * l.kcE)
	bpack := ar.AllocUninit(l.kcE * l.ncE)
	if l.pre != nil {
		l.pre(0, l.m)
	}
	var acct bandAcct
	whole := rowBand{hi: l.m, h: l.mcE}
	for s := range l.steps() {
		st := l.step(s)
		l.packB(&acct, bpack, st, 0, st.nb)
		l.band(&acct, whole, apack, bpack, st)
	}
	ar.Free(bpack)
	ar.Free(apack)
	l.finish(acct)
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
				p.band(acct, bd, ap, buf, st)
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
	var t0 time.Time
	if l.prof != nil {
		t0 = time.Now()
	}
	dst, jc, nb := bpack[lo*st.kb:], st.jc+lo, hi-lo
	if l.fused {
		op := l.product(st.rec).B
		packBFused(l.mi, dst, op, st.pc, jc, st.kb, nb)
		acct.packTerms(len(op.Terms), int64(st.kb)*int64(nb))
	} else {
		packB(l.mi.nr, dst, l.b, l.ldb, l.tb, st.pc, jc, st.kb, nb)
	}
	if l.prof != nil {
		acct.packBNS += int64(time.Since(t0))
	}
	acct.packedB += int64(st.kb) * int64(nb)
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
// product when fused).
func (l *leaf) band(acct *bandAcct, bd rowBand, apack, bpack []float64, st step) {
	mi := l.mi
	var t0 time.Time
	for ic := bd.lo; ic < bd.hi; ic += bd.h {
		mb := min(bd.hi-ic, bd.h)
		if l.prof != nil {
			t0 = time.Now()
		}
		var pr *Product
		if l.fused {
			pr = l.product(st.rec)
			packAFused(mi, apack, pr.A, ic, st.pc, mb, st.kb)
			acct.packTerms(len(pr.A.Terms), int64(mb)*int64(st.kb))
		} else {
			packA(mi.mr, apack, l.a, l.lda, l.ta, ic, st.pc, mb, st.kb)
		}
		if l.prof != nil {
			acct.packANS += int64(time.Since(t0))
			t0 = time.Now()
		}
		acct.packedA += int64(mb) * int64(st.kb)
		var ft, et int64
		nd := 1
		if pr != nil {
			ft, et = macroKernelFused(mi, apack, bpack, pr.Dests, ic, st.jc, mb, st.nb, st.kb, l.alpha)
			nd = len(pr.Dests)
		} else {
			ft, et = macroKernel(mi, apack, bpack, l.c, l.ldc, ic, st.jc, mb, st.nb, st.kb, l.alpha)
		}
		if l.prof != nil {
			acct.macro(mi, int64(time.Since(t0)), mb, st.nb, st.kb, ft, et, nd)
		}
		acct.tiles += ft + et
	}
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
// workers workers (0 without one): LeafWorkspace, plus a second B̃ panel
// when the call's rows split into bands and it has more than one step —
// the buffer the next step's B̃ packs into while the bands sweep this
// one's. strassen.PlanFor folds the maximum over a plan's calls into
// Plan.KernelWords.
func (k *Packed) CallWorkspace(workers, products, m, n, kk int) int64 {
	w := k.LeafWorkspace(m, n, kk)
	if w == 0 || products < 1 {
		return 0
	}
	mi := k.impl()
	mcE, kcE, ncE := k.effBlocks(mi, m, n, kk)
	if bandCount(m, mcE, mi.mr, workers) >= 2 && stepCount(products, n, kk, kcE, ncE) > 1 {
		w += int64(kcE) * int64(ncE)
	}
	return w
}
