package kernel

// The packed loop nest, shared by MulAdd and FusedMulAdd and by their
// threaded forms. The threading point follows the BLIS analysis (Huang et
// al., arXiv:1605.01078, §parallelization): the jc/pc loops carry the B̃
// panel and the KC-accumulation order, so the ic loop — whose iterations
// write disjoint row bands of C and share B̃ read-only — is where
// parallelism is free of synchronization on C.
//
// A threaded call splits the rows into MR-aligned bands, one
// work-stealing task (internal/sched) per band, and the bands share the
// one MC×KC Ã budget of the sequential nest: each packs its rows a slice
// of that buffer at a time. A leaf of a single MC block therefore threads
// too, and a threaded call draws exactly LeafWorkspace. A sequential call
// is the same nest with one band, every row packed an MC block at a time
// into the whole buffer, run inline. Band edges fall on register-tile
// edges and the KC panels retire in order (each panel's tasks are a
// barrier), so every C element sees the same packed words, the same tile
// and the same summation order whatever the split: results are bit-for-bit
// identical across thread counts.

import (
	"context"
	"time"

	"repro/internal/blas"
	"repro/internal/phase"
	"repro/internal/sched"
)

// rowBand is one task's share of a threaded leaf: rows [lo, hi), packed h
// rows at a time into the Ã buffer's rows [off, off+h).
type rowBand struct{ lo, hi, h, off int }

// rowBands splits m rows into at most threads MR-aligned bands whose Ã
// slices partition the mcE-row Ã buffer (nil when fewer than two bands
// result). Band t takes an equal share of the m rows' register panels and
// of the buffer's.
func rowBands(m, mcE, mr, threads int) []rowBand {
	panels, bufPanels := (m+mr-1)/mr, mcE/mr
	t := min(threads, panels, bufPanels)
	if t < 2 {
		return nil
	}
	out := make([]rowBand, t)
	for i := range out {
		p0, p1 := i*panels/t, (i+1)*panels/t
		s0, s1 := i*bufPanels/t, (i+1)*bufPanels/t
		out[i] = rowBand{lo: p0 * mr, hi: min(p1*mr, m), h: min(p1-p0, s1-s0) * mr, off: s0 * mr}
	}
	return out
}

// leaf is one call of the packed loop nest: MulAdd's operands, or
// FusedMulAdd's when fused is set.
type leaf struct {
	k        *Packed
	mi       *microImpl
	m, n, kk int
	alpha    float64
	prof     *phase.Profiler

	ta, tb        bool
	a, b, c       []float64
	lda, ldb, ldc int

	fused  bool
	fa, fb Operand
	dests  []Dest

	seq bandAcct // the one band of a sequential call
}

// bandAcct is one band's phase attribution and counters. B̃ is formed
// between panels, while no band runs, and is credited to band 0. The
// sweeps fold as fused ones; a plain call has one destination, so they
// carry no write-out share.
type bandAcct struct {
	fusedAcct
	packANS, packBNS        int64
	packedA, packedB, tiles int64
}

// panel is one (jc, pc) step of the nest: columns [jc, jc+nb) of C and the
// KC slice [pc, pc+kb) of the inner dimension.
type panel struct{ jc, pc, nb, kb int }

// run executes the nest, splitting each panel's rows into bands run as
// tasks on sub when bands is non-nil, and credits the call to the kernel.
func (l *leaf) run(sub sched.Submitter, bands []rowBand) {
	k := l.k
	mcE, kcE, ncE := k.effBlocks(l.mi, l.m, l.n, l.kk)
	ar := k.Arena()
	apack := ar.AllocUninit(mcE * kcE)
	bpack := ar.AllocUninit(kcE * ncE)
	// Band tasks share a heap copy of the call, so a sequential call's
	// leaf stays on its caller's stack.
	var tasks *leaf
	var accts []bandAcct
	b0 := &l.seq
	if bands != nil {
		tasks = new(leaf)
		*tasks = *l
		accts = make([]bandAcct, len(bands))
		b0 = &accts[0]
	}
	for jc := 0; jc < l.n; jc += ncE {
		for pc := 0; pc < l.kk; pc += kcE {
			p := panel{jc: jc, pc: pc, nb: min(l.n-jc, ncE), kb: min(l.kk-pc, kcE)}
			l.packB(b0, bpack, p)
			if bands == nil {
				l.band(&l.seq, rowBand{hi: l.m, h: mcE}, apack, bpack, p)
				continue
			}
			tasks.runBands(sub, bands, accts, apack, bpack, kcE, p)
		}
	}
	ar.Free(bpack)
	ar.Free(apack)
	if bands == nil {
		l.finish(l.seq)
		return
	}
	for _, a := range accts {
		l.finish(a)
	}
}

// runBands runs one panel's bands as tasks. The next KC step accumulates
// into the same C columns, so the panel's tasks finish before it returns —
// that order is what keeps the summation bit-identical.
func (l *leaf) runBands(sub sched.Submitter, bands []rowBand, accts []bandAcct, apack, bpack []float64, kcE int, p panel) {
	d := sched.NewDAG()
	for i, b := range bands {
		ap := apack[b.off*kcE : (b.off+b.h)*kcE]
		acct := &accts[i]
		d.Add(func(*sched.Worker) { l.band(acct, b, ap, bpack, p) })
	}
	_ = sub.Run(context.Background(), d)
}

// packB forms panel p's B̃ into bpack.
func (l *leaf) packB(acct *bandAcct, bpack []float64, p panel) {
	var t0 time.Time
	if l.prof != nil {
		t0 = time.Now()
	}
	if l.fused {
		packBFused(l.mi, bpack, l.fb, p.pc, p.jc, p.kb, p.nb)
	} else {
		packB(l.mi.nr, bpack, l.b, l.ldb, l.tb, p.pc, p.jc, p.kb, p.nb)
	}
	if l.prof != nil {
		acct.packBNS += int64(time.Since(t0))
	}
	acct.packedB += int64(p.kb) * int64(p.nb)
}

// band packs band b's rows of panel p into apack, bd.h rows at a time, and
// sweeps each block against B̃ into C (every destination when fused).
func (l *leaf) band(acct *bandAcct, bd rowBand, apack, bpack []float64, p panel) {
	mi := l.mi
	var t0 time.Time
	for ic := bd.lo; ic < bd.hi; ic += bd.h {
		mb := min(bd.hi-ic, bd.h)
		if l.prof != nil {
			t0 = time.Now()
		}
		if l.fused {
			packAFused(mi, apack, l.fa, ic, p.pc, mb, p.kb)
		} else {
			packA(mi.mr, apack, l.a, l.lda, l.ta, ic, p.pc, mb, p.kb)
		}
		if l.prof != nil {
			acct.packANS += int64(time.Since(t0))
			t0 = time.Now()
		}
		acct.packedA += int64(mb) * int64(p.kb)
		var ft, et int64
		nd := 1
		if l.fused {
			ft, et = macroKernelFused(mi, apack, bpack, l.dests, ic, p.jc, mb, p.nb, p.kb, l.alpha)
			nd = len(l.dests)
		} else {
			ft, et = macroKernel(mi, apack, bpack, l.c, l.ldc, ic, p.jc, mb, p.nb, p.kb, l.alpha)
		}
		if l.prof != nil {
			acct.macro(mi, int64(time.Since(t0)), mb, p.nb, p.kb, ft, et, nd)
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
		a.fusedAcct.flush(l.prof, len(l.fa.Terms), len(l.fb.Terms), a.packedA, a.packedB)
	default:
		pa := phaseAcct{sweepAcct: a.sweepAcct, packANS: a.packANS, packBNS: a.packBNS}
		pa.flush(l.prof, a.packedA, a.packedB)
	}
	l.k.packAWords.Add(a.packedA)
	l.k.packBWords.Add(a.packedB)
	l.k.countTiles(l.mi, a.tiles)
}

// MulAddTasks is MulAdd with the rows of each (jc, pc) panel split into up
// to threads bands executed as scheduler tasks (see rowBands). The B̃ panel
// is packed once per (jc, pc) by the calling goroutine and shared
// read-only; every band packs its own rows into its slice of the Ã buffer,
// so the arena draw is LeafWorkspace, as for MulAdd, and the results are
// bit-for-bit MulAdd's.
//
// sub may be an external *sched.Runtime or the *sched.Worker handle of a
// running task — bands then go to the worker's own deque, the worker
// executes them itself and idle workers steal, which is what lets a
// Strassen product task thread its leaves without blocking the pool. With
// a nil submitter, fewer than two bands, or a single-worker runtime, it
// runs as MulAdd.
func (k *Packed) MulAddTasks(sub sched.Submitter, threads int, transA, transB blas.Transpose, m, n, kk int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m <= 0 || n <= 0 || kk <= 0 || alpha == 0 {
		return
	}
	l := leaf{k: k, mi: k.impl(), m: m, n: n, kk: kk, alpha: alpha, prof: phase.Active(),
		ta: transA.IsTrans(), tb: transB.IsTrans(), a: a, b: b, c: c, lda: lda, ldb: ldb, ldc: ldc}
	l.run(sub, k.bands(l.mi, sub, threads, m, n, kk))
	k.mulAdds.Add(1)
}

// FusedMulAddTasks is FusedMulAdd with the same band split as MulAddTasks,
// over all of sub's workers: the calling goroutine forms each fused B̃
// panel once, and every band forms its own rows of Ã into its slice of the
// Ã buffer and writes them out to the same row band of every destination.
// Bands write disjoint rows of each destination, and the result is
// bit-for-bit FusedMulAdd's, within LeafWorkspace of the block shape. It
// runs as FusedMulAdd in the cases MulAddTasks runs as MulAdd.
func (k *Packed) FusedMulAddTasks(sub sched.Submitter, m, n, kk int, alpha float64, a, b Operand, dests []Dest) {
	if m <= 0 || n <= 0 || kk <= 0 || alpha == 0 ||
		len(a.Terms) == 0 || len(b.Terms) == 0 || len(dests) == 0 {
		return
	}
	l := leaf{k: k, mi: k.impl(), m: m, n: n, kk: kk, alpha: alpha, prof: phase.Active(),
		fused: true, fa: a, fb: b, dests: dests}
	threads := 0
	if sub != nil {
		threads = sub.Workers()
	}
	l.run(sub, k.bands(l.mi, sub, threads, m, n, kk))
	k.fusedMulAdds.Add(1)
}

// bands resolves the band split of a call, or nil when it runs
// sequentially: no submitter, one worker or thread, or one register panel.
func (k *Packed) bands(mi *microImpl, sub sched.Submitter, threads, m, n, kk int) []rowBand {
	if sub == nil {
		return nil
	}
	mcE, _, _ := k.effBlocks(mi, m, n, kk)
	return rowBands(m, mcE, mi.mr, min(threads, sub.Workers()))
}
