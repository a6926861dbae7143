package blas

import (
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// Cloner is implemented by kernels that keep internal state (packing
// buffers) and therefore cannot be shared across goroutines: Clone returns
// an independent kernel with the same tuning.
type Cloner interface {
	// Clone returns a kernel safe to use concurrently with the receiver.
	Clone() Kernel
}

// Clone implements Cloner: a fresh BlockedKernel with the same block sizes
// but its own packing buffers.
func (k *BlockedKernel) Clone() Kernel {
	return &BlockedKernel{MC: k.MC, KC: k.KC, NC: k.NC}
}

// CloneKernel returns a goroutine-independent copy of k: stateful kernels
// are cloned via Cloner, stateless ones are returned as-is. Nil selects
// DefaultKernel.
func CloneKernel(k Kernel) Kernel {
	if k == nil {
		k = DefaultKernel
	}
	if c, ok := k.(Cloner); ok {
		return c.Clone()
	}
	return k
}

// ParallelKernel parallelizes any base kernel across goroutines by
// splitting C into column panels (each C column depends only on the
// corresponding op(B) columns, so panels are independent). It addresses the
// paper's Section 5 future-work item of extending the implementation to use
// parallelism at the BLAS level: DGEFMM built on a parallel DGEMM
// parallelizes both the below-cutoff multiplies and, through the peeling
// fixups staying serial, preserves exactly the sequential results up to
// floating-point-identical arithmetic (each output element is computed by
// the same scalar operations in the same order as in the base kernel).
type ParallelKernel struct {
	// Workers is the number of goroutines; values < 2 degrade to the base
	// kernel inline.
	Workers int
	// Base is the per-worker kernel; nil selects DefaultKernel. Stateful
	// bases are cloned per worker.
	Base Kernel

	mu    sync.Mutex
	pool  []Kernel
	stats *parallelStats
}

// parallelStats accumulates dispatch accounting. It is shared between a
// kernel and its clones (the Strassen parallel schedule clones the kernel
// per product goroutine), so Stats on any of them reports the whole
// family's activity.
type parallelStats struct {
	dispatches atomic.Int64
	goroutines atomic.Int64
}

// statsRef lazily allocates the shared stats block.
func (p *ParallelKernel) statsRef() *parallelStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stats == nil {
		p.stats = &parallelStats{}
	}
	return p.stats
}

// Stats returns cumulative dispatch counts across the kernel and all its
// clones: how many MulAdd calls were dispatched and how many worker
// goroutines those calls spawned (inline below-threshold calls spawn none).
func (p *ParallelKernel) Stats() (dispatches, goroutines int64) {
	st := p.statsRef()
	return st.dispatches.Load(), st.goroutines.Load()
}

// Name implements Kernel.
func (p *ParallelKernel) Name() string {
	base := p.Base
	if base == nil {
		base = DefaultKernel
	}
	return "parallel(" + base.Name() + ")"
}

// Clone implements Cloner. The clone shares the parent's dispatch stats.
func (p *ParallelKernel) Clone() Kernel {
	return &ParallelKernel{Workers: p.Workers, Base: p.Base, stats: p.statsRef()}
}

// acquire hands out a per-worker kernel, reusing pooled clones.
func (p *ParallelKernel) acquire() Kernel {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.pool); n > 0 {
		k := p.pool[n-1]
		p.pool = p.pool[:n-1]
		return k
	}
	return CloneKernel(p.Base)
}

func (p *ParallelKernel) release(k Kernel) {
	p.mu.Lock()
	p.pool = append(p.pool, k)
	p.mu.Unlock()
}

// minParallelCols is the smallest panel worth a goroutine; below it the
// spawn overhead dominates.
const minParallelCols = 32

// taskThreader is the structural interface of a base whose own loop nest
// can thread through the work-stealing runtime (kernel.Packed's
// MulAddTasks). Structural because blas cannot import internal/kernel
// (kernel builds on blas).
type taskThreader interface {
	Kernel
	MulAddTasks(sub sched.Submitter, threads int, transA, transB Transpose, m, n, k int, alpha float64,
		a []float64, lda int, b []float64, ldb int, c []float64, ldc int)
}

// MulAdd implements Kernel. A base that can thread its own rows
// (taskThreader) runs on the process-shared work-stealing runtime —
// per-block work distribution with stealing, one core budget shared with
// every other runtime user, and bit-for-bit the base's sequential results.
// Other bases keep the legacy goroutine-per-column-panel split, whose
// per-element arithmetic is also identical to the base's.
func (p *ParallelKernel) MulAdd(transA, transB Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	st := p.statsRef()
	st.dispatches.Add(1)
	if tt, ok := p.Base.(taskThreader); ok && p.Workers > 1 {
		tt.MulAddTasks(sched.Shared(), p.Workers, transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	workers := p.Workers
	if workers > n/minParallelCols {
		workers = n / minParallelCols
	}
	if workers < 2 {
		kern := p.acquire()
		kern.MulAdd(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		p.release(kern)
		return
	}

	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		j0 := w * chunk
		if j0 >= n {
			break
		}
		nw := chunk
		if j0+nw > n {
			nw = n - j0
		}
		wg.Add(1)
		st.goroutines.Add(1)
		go func(j0, nw int) {
			defer wg.Done()
			kern := p.acquire()
			defer p.release(kern)
			// op(B)'s columns j0..j0+nw map to storage columns (NoTrans) or
			// storage rows (Trans); C's columns shift by j0·ldc either way.
			bw := b
			if !transB.IsTrans() {
				bw = b[j0*ldb:]
			} else {
				bw = b[j0:]
			}
			kern.MulAdd(transA, transB, m, nw, k, alpha, a, lda, bw, ldb, c[j0*ldc:], ldc)
		}(j0, nw)
	}
	wg.Wait()
}
