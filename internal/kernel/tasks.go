package kernel

// Threaded leaf execution: the packed loop nest's MC loop run as
// work-stealing tasks (internal/sched). The threading point follows the
// BLIS analysis (Huang et al., arXiv:1605.01078, §parallelization): the
// jc/pc loops carry the B̃ panel and the KC-accumulation order, so the ic
// loop — whose iterations write disjoint row bands of C and share B̃
// read-only — is where parallelism is free of synchronization on C.

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/phase"
	"repro/internal/sched"
)

// MulAddTasks is MulAdd with the MC (ic) loop of each (jc, pc) panel split
// into up to threads contiguous block chunks executed as scheduler tasks.
// The B̃ panel is packed once per (jc, pc) by the calling goroutine and
// shared read-only; every chunk packs its own Ã micro-panels into a private
// buffer, so the concurrent arena draw is threads·MC·KC + KC·NC
// (LeafWorkspaceParallel). Chunk boundaries fall on the same MC block edges
// the sequential loop uses and the KC panels retire in order (each panel's
// DAG is a barrier), so results are bit-for-bit identical to MulAdd.
//
// sub may be an external *sched.Runtime or the *sched.Worker handle of a
// running task — chunks then go to the worker's own deque, the worker
// executes them itself and idle workers steal, which is what lets a
// Strassen product task thread its leaves without blocking the pool. With
// a nil submitter, fewer than two effective chunks, or a single-worker
// runtime, it degrades to plain MulAdd.
func (k *Packed) MulAddTasks(sub sched.Submitter, threads int, transA, transB blas.Transpose, m, n, kk int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m <= 0 || n <= 0 || kk <= 0 || alpha == 0 {
		return
	}
	mi := k.impl()
	mcE, kcE, ncE := k.effBlocks(mi, m, n, kk)
	icBlocks := (m + mcE - 1) / mcE
	if sub != nil && threads > sub.Workers() {
		threads = sub.Workers()
	}
	if threads > icBlocks {
		threads = icBlocks
	}
	if sub == nil || threads < 2 {
		k.MulAdd(transA, transB, m, n, kk, alpha, a, lda, b, ldb, c, ldc)
		return
	}

	ar := k.Arena()
	bpack := ar.AllocUninit(kcE * ncE)
	ta, tb := transA.IsTrans(), transB.IsTrans()

	prof := phase.Active()
	var acct phaseAcct // pack_b runs on the calling goroutine
	var packedB int64
	var packedA, tiles atomic.Int64
	var t0 time.Time
	for jc := 0; jc < n; jc += ncE {
		nb := n - jc
		if nb > ncE {
			nb = ncE
		}
		for pc := 0; pc < kk; pc += kcE {
			kb := kk - pc
			if kb > kcE {
				kb = kcE
			}
			if prof != nil {
				t0 = time.Now()
			}
			packB(mi.nr, bpack, b, ldb, tb, pc, jc, kb, nb)
			if prof != nil {
				acct.packBNS += int64(time.Since(t0))
			}
			packedB += int64(kb) * int64(nb)

			d := sched.NewDAG()
			for t := 0; t < threads; t++ {
				lo, hi := t*icBlocks/threads, (t+1)*icBlocks/threads
				if lo == hi {
					continue
				}
				jc, pc, nb, kb := jc, pc, nb, kb
				d.Add(func(w *sched.Worker) {
					apack := ar.AllocUninit(mcE * kcE)
					var cacct phaseAcct
					var aWords, nt int64
					var ct0 time.Time
					for blk := lo; blk < hi; blk++ {
						ic := blk * mcE
						mb := m - ic
						if mb > mcE {
							mb = mcE
						}
						if prof != nil {
							ct0 = time.Now()
						}
						packA(mi.mr, apack, a, lda, ta, ic, pc, mb, kb)
						if prof != nil {
							cacct.packANS += int64(time.Since(ct0))
							ct0 = time.Now()
						}
						aWords += int64(mb) * int64(kb)
						f, e := macroKernel(mi, apack, bpack, c, ldc, ic, jc, mb, nb, kb, alpha)
						if prof != nil {
							cacct.macro(mi, int64(time.Since(ct0)), mb, nb, kb, f, e)
						}
						nt += f + e
					}
					ar.Free(apack)
					if prof != nil {
						cacct.flush(prof, aWords, 0)
					}
					packedA.Add(aWords)
					tiles.Add(nt)
				})
			}
			// Barrier per (jc, pc): the next KC step accumulates into the
			// same C columns, so panels must retire in order — that order is
			// what makes the summation bit-identical to the sequential nest.
			_ = sub.Run(context.Background(), d)
		}
	}
	ar.Free(bpack)
	if prof != nil {
		acct.flush(prof, 0, packedB)
	}
	k.mulAdds.Add(1)
	k.packAWords.Add(packedA.Load())
	k.packBWords.Add(packedB)
	k.countTiles(mi, tiles.Load())
}

// LeafWorkspaceParallel is LeafWorkspace under MulAddTasks with the given
// thread count: each concurrent chunk owns an Ã panel while the B̃ panel is
// shared. strassen.PlanFor consults it (through the parallelLeafSizer
// structural interface) when a task runtime may thread the plan's leaves.
func (k *Packed) LeafWorkspaceParallel(m, n, kk, threads int) int64 {
	if m <= 0 || n <= 0 || kk <= 0 {
		return 0
	}
	mcE, kcE, ncE := k.effBlocks(k.impl(), m, n, kk)
	icBlocks := (m + mcE - 1) / mcE
	if threads > icBlocks {
		threads = icBlocks
	}
	if threads < 1 {
		threads = 1
	}
	return int64(threads)*int64(mcE)*int64(kcE) + int64(kcE)*int64(ncE)
}
