package strassen

// Task-DAG execution: the top recursion levels' products run as a
// dependency graph on the work-stealing runtime (internal/sched) — the
// paper's Section 5 future-work item ("extend our implementation to use
// ... parallelism"). A DAG level is the table's DAG program compiled for
// the level's lanes (compileDAG): operand formation tasks (the S_r/T_r
// linear combinations), the R recursive products, and one write-back task
// per nonzero of W, with edges derived from the ops' read and write sets
// — so a product starts the moment its own operands and its lane's
// buffers are free, and a C block takes each product as soon as it and
// the block's earlier products have retired.
//
// Determinism: every buffer has one writing task at a time, each C block
// takes its products in ascending r (the sequential table program's
// order), and the lanes' buffer reuse makes the in-flight product cap a
// property of the graph rather than of scheduler timing — so the same
// configuration produces bit-for-bit identical output on a 1-worker and
// an N-worker runtime (FuzzSchedDAG pins this on the scalar Compat
// kernel).
//
// Memory: the temporaries are register-allocated by lane (allocTemps), so
// a level holds one A, B and P buffer per lane that forms such an operand.
// On the default path (the builtin Winograd ⟨2,2,2⟩ table, whose operand
// combinations are the paper's S1..S4/T1..T4) that is at most
// lanes·(mk/4 + kn/4 + mn/4) words — 6 blocks at two lanes, 3 at one,
// against 4·mk/4 + 4·kn/4 + 7·mn/4 with a buffer per operand and product.
// Leaves and fused levels under a DAG level thread too (kernel.MulAddTasks
// and FusedMulAddTasks), so a lane that finishes early helps the others'
// calls instead of idling. A level whose last two levels fuse as one node
// runs that node instead of a DAG (policy.levelProgram): its 49 records
// are one kernel call whose steps pipeline over the workers, with no
// temporaries, so the DAG only runs on levels above nodes whose children
// still recurse.

import (
	"context"

	"repro/internal/blas"
	"repro/internal/memtrack"
	"repro/internal/sched"
)

// schedParams resolves the task-runtime knobs from a Config for a table
// with r products: the per-level in-flight product cap (lanes, the
// runtime's worker count), the number of top recursion levels that expand
// into tasks (levels), and whether the DAG path is active at all.
func (cfg *Config) schedParams(r int) (lanes, levels int, dag bool) {
	if cfg.Sched == nil {
		return 0, 0, false
	}
	lanes = cfg.Sched.Workers()
	levels = cfg.SchedLevels
	if levels <= 0 {
		levels = schedAutoLevels(r, lanes)
	}
	return lanes, levels, true
}

// schedCores returns the worker count of the runtime a call would execute
// on (0 when no task runtime is configured); the cutoff resolution and
// PlanFor consult it so the "<kernel>@<cores>" calibration rows see the
// same figure the engine does.
func (cfg *Config) schedCores() int {
	if cfg.Sched == nil {
		return 0
	}
	return cfg.Sched.Workers()
}

// schedAutoLevels picks how many top recursion levels to expand into tasks
// when the configuration does not say: enough that the product fan-out
// (R per level) covers the workers, capped at 3 — beyond that the task
// granularity shrinks below the scheduling overhead.
func schedAutoLevels(r, workers int) int {
	lv, span := 1, r
	for span < workers && lv < 3 {
		span *= r
		lv++
	}
	return lv
}

// runCtx is the context the engine's DAGs run under.
func (e *engine) runCtx() context.Context {
	if e.ctx != nil {
		return e.ctx
	}
	return context.Background()
}

// canceled reports whether the call's context has expired; the recursion
// polls it at every mul entry so cancellation lands between products (the
// DAG additionally drains in-flight levels through sched's skip path).
func (e *engine) canceled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// taskEngine derives the engine a product task runs with: same policy and
// tracker (it is concurrency-safe), and the executing worker as its
// submitter — nested DAG levels and threaded leaves then push onto the
// worker's own deque (helping) instead of blocking the pool from outside.
// A kernel that draws every call's buffers from an arena (kernel.Packed)
// is safe for concurrent use and is shared, so every leaf of the call —
// fused or not, inside a product task or not — draws from the one arena
// Plan.KernelWords describes and counts on the one kernel. Any other
// kernel (none of them fuses) is cloned per task.
func (e *engine) taskEngine(w *sched.Worker) *engine {
	sub := *e
	if _, shared := e.kern.(arenaKernel); !shared {
		sub.kern = blas.CloneKernel(e.kern)
	}
	if w != nil {
		sub.sub = w
	}
	return &sub
}

// arenaKernel is the structural interface of a kernel whose workspace
// lives in a per-kernel arena (kernel.Packed).
type arenaKernel interface {
	Arena() *memtrack.Tracker
}
