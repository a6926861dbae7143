// Package batch executes many independent DGEFMM calls — C_i ← α_i·op(A_i)·
// op(B_i) + β_i·C_i — through a fixed worker pool with reusable per-worker
// workspace arenas and per-shape execution plans.
//
// The paper positions DGEFMM as a drop-in, memory-lean DGEMM replacement;
// this package is what makes it serviceable under batched traffic, the hot
// path of real multiply-heavy workloads:
//
//   - Worker pool: a fixed number of goroutines consume calls from a
//     bounded queue, so inter-call parallelism is explicit and capped.
//   - Workspace arena: each worker owns a memtrack.Tracker whose free list
//     recycles the Strassen temporaries; after the first call of a given
//     shape the worker's arena serves every later same-shape call with
//     zero fresh allocations. The arena's peak is the shape's plan words
//     per worker (within the paper's Table 1 bounds, strassen.WorkspaceBound,
//     up to the rounding of virtually padded odd levels), not per batch.
//   - Shape bucketing: calls with the same (op(A), op(B), m, n, k, β-class)
//     share one strassen.Plan, derived once, whose workspace figure sizes
//     the arenas (Stats.PlanWords); each call still resolves its own
//     cutoff, as a lone DGEFMM does.
//   - Core budgeting: with a work-stealing runtime attached (Options.Sched
//     or Config.Sched) the budget is structural: every call executes as a
//     task DAG on the runtime, whose worker count caps tasks in flight
//     regardless of how many pool workers submit concurrently. Without
//     one, the pool divides GOMAXPROCS between inter-call workers and a
//     blas.ParallelKernel's worker count so the two levels of concurrency
//     do not oversubscribe the machine.
//
// Observability: give Options.Collector an obs.Collector and the pool
// maintains a queue-depth gauge ("batch.queue_depth"), a call counter
// ("batch.calls"), an arena-reuse counter ("batch.arena.reuses") and one
// latency histogram per shape bucket ("batch.bucket.<m>x<k>x<n>.<β>.ns"),
// and registers every worker arena so snapshots carry the workspace
// accounting.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/obs"
	"repro/internal/phase"
	"repro/internal/sched"
	"repro/internal/strassen"
)

// Call describes one C ← alpha·op(A)·op(B) + beta·C multiplication of a
// batch, in the raw BLAS convention of DGEFMM (column-major storage with
// leading dimensions). Calls of one batch must not overlap in C; A and B
// may be shared freely (they are only read).
type Call struct {
	// TransA, TransB select op(A) and op(B).
	TransA, TransB blas.Transpose
	// M, N, K are the logical dimensions: op(A) is M×K, op(B) is K×N,
	// C is M×N.
	M, N, K int
	// Alpha and Beta are the scalar coefficients.
	Alpha, Beta float64
	// A, B, C are the column-major operand buffers with leading dimensions
	// Lda, Ldb, Ldc.
	A   []float64
	Lda int
	B   []float64
	Ldb int
	C   []float64
	Ldc int
	// Ctx, if non-nil, cancels the call: a context already done when a
	// worker picks the call up skips it outright, and one that expires
	// mid-execution stops the running multiply at the next product
	// boundary (the recursion polls the context between products, and the
	// task DAG drains its remaining bodies). Either way the call reports
	// the context's error without disturbing the rest of the batch; its C
	// may hold a partial result the caller must discard.
	Ctx context.Context
}

// NewCall builds a Call from Dense operands, validating shapes exactly as
// strassen.Multiply does: C ← alpha·op(A)·op(B) + beta·C.
func NewCall(c *matrix.Dense, transA, transB blas.Transpose, alpha float64, a, b *matrix.Dense, beta float64) Call {
	m, k := a.Rows, a.Cols
	if transA.IsTrans() {
		m, k = k, m
	}
	kb, n := b.Rows, b.Cols
	if transB.IsTrans() {
		kb, n = n, kb
	}
	if kb != k {
		panic("batch: NewCall: inner dimensions mismatch")
	}
	if c.Rows != m || c.Cols != n {
		panic("batch: NewCall: output shape mismatch")
	}
	return Call{
		TransA: transA, TransB: transB,
		M: m, N: n, K: k,
		Alpha: alpha, Beta: beta,
		A: a.Data, Lda: a.Stride,
		B: b.Data, Ldb: b.Stride,
		C: c.Data, Ldc: c.Stride,
	}
}

// Options configures NewPool. The zero value (and a nil *Options) selects
// GOMAXPROCS workers running the paper's default DGEFMM configuration.
type Options struct {
	// Workers is the number of pool goroutines; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the job queue; <= 0 selects 4×Workers (min 16).
	// Execute blocks while the queue is full, providing backpressure.
	QueueDepth int
	// Config is the base DGEFMM configuration every call runs under. The
	// pool copies it and re-budgets a ParallelKernel's workers against the
	// worker count; per-worker kernels
	// and trackers replace Kernel and Tracker. Nil selects the defaults.
	Config *strassen.Config
	// Collector, if non-nil, receives the pool's metrics and the worker
	// arenas' workspace accounting (see the package comment for names).
	Collector *obs.Collector
	// Sched, if non-nil, routes every call through this work-stealing
	// runtime: a pool worker submits its call as a task and the runtime's
	// workers execute the call's product DAG and threaded leaves, so
	// intra-call parallelism across all concurrent calls shares the
	// runtime's single core budget (tasks in flight never exceed its
	// worker count, however many pool workers submit). Equivalent to
	// setting Config.Sched; when both are set, Options.Sched wins. Nil
	// (with a nil Config.Sched) keeps the pool's legacy direct execution
	// with the GOMAXPROCS/Workers core split.
	Sched *sched.Runtime
}

// Pool is a batched-DGEFMM execution engine. Create with NewPool, submit
// with Execute (any number of goroutines may call it concurrently), and
// release the workers with Close. The zero value is not usable.
type Pool struct {
	base    strassen.Config // worker template: Kernel/Tracker filled per worker
	sched   *sched.Runtime  // non-nil: calls run as tasks on this runtime
	jobs    chan job
	workers []*worker
	done    sync.WaitGroup
	closed  atomic.Bool
	ncalls  atomic.Int64

	mu      sync.RWMutex
	buckets map[bucketKey]*bucket

	col        *obs.Collector
	queueDepth *obs.Gauge
	calls      *obs.Counter
	arenaReuse *obs.Counter
}

// worker is one pool goroutine's private state: a kernel clone (stateful
// kernels must not be shared) and the workspace arena.
type worker struct {
	kern       blas.Kernel
	tracker    *memtrack.Tracker
	lastReused int64
}

// bucketKey identifies a shape class: calls agreeing on it share a plan.
type bucketKey struct {
	m, n, k        int
	transA, transB bool
	betaZero       bool
}

// bucket is one shape class's shared execution state.
type bucket struct {
	plan *strassen.Plan
	hist *obs.Histogram // per-bucket call latency (nil without a collector)
}

// job is one queued call plus its batch's completion state. enqueued is
// stamped only while a phase profiler is installed; a worker attributes
// the dequeue latency to phase.BatchQueueWait. A job reports failure
// through errAt (per-call, ExecuteEach) when set, else through err
// (first-failure-wins, Execute).
type job struct {
	call     *Call
	bkt      *bucket
	wg       *sync.WaitGroup
	err      *errSlot
	errAt    *error
	enqueued time.Time
}

// fail records the job's failure in its batch's reporting slot. errAt is
// written race-free: each ExecuteEach call owns a distinct slice element,
// and the caller reads it only after wg.Wait.
func (j job) fail(err error) {
	if j.errAt != nil {
		*j.errAt = err
		return
	}
	j.err.set(err)
}

// errSlot records the first failure of a batch.
type errSlot struct {
	mu  sync.Mutex
	err error
}

func (s *errSlot) set(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *errSlot) get() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// NewPool starts a worker pool. Close it when done; an unclosed pool leaks
// its worker goroutines.
func NewPool(opts *Options) *Pool {
	var o Options
	if opts != nil {
		o = *opts
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := o.QueueDepth
	if queue <= 0 {
		queue = 4 * workers
		if queue < 16 {
			queue = 16
		}
	}
	base := o.Config
	if base == nil {
		base = strassen.DefaultConfig(nil)
	}

	p := &Pool{
		base:    *base,
		jobs:    make(chan job, queue),
		buckets: make(map[bucketKey]*bucket),
		col:     o.Collector,
	}
	p.base.Tracker = nil // workers install their own arenas

	// Core budget. With a task runtime (Options.Sched or Config.Sched) the
	// budget is structural: calls run as tasks on the runtime, which never
	// has more tasks in flight than workers, so pool workers are pure
	// submitters and no per-call scaling is needed. Without one, a
	// column-parallel kernel gets GOMAXPROCS / workers threads per call, so
	// inter-call and intra-call parallelism together never exceed the
	// machine.
	if o.Sched != nil {
		p.base.Sched = o.Sched
	}
	p.sched = p.base.Sched
	perCall := runtime.GOMAXPROCS(0) / workers
	if perCall < 1 {
		perCall = 1
	}
	kern := p.base.Kernel
	if kern == nil {
		kern = kernel.Default()
	}
	if pk, ok := kern.(*blas.ParallelKernel); ok && pk.Workers > perCall {
		if perCall < 2 {
			kern = pk.Base
			if kern == nil {
				kern = kernel.Default()
			}
		} else {
			kern = &blas.ParallelKernel{Workers: perCall, Base: pk.Base}
		}
	}
	// Workers run clones of the re-budgeted kernel, so plans and each
	// call's calibrated cutoff resolve against it too.
	p.base.Kernel = kern

	if p.col != nil {
		p.queueDepth = p.col.Registry.Gauge("batch.queue_depth")
		p.calls = p.col.Registry.Counter("batch.calls")
		p.arenaReuse = p.col.Registry.Counter("batch.arena.reuses")
	}

	for i := 0; i < workers; i++ {
		w := &worker{kern: blas.CloneKernel(kern), tracker: memtrack.New()}
		if p.col != nil {
			p.col.ObserveTracker(w.tracker)
			p.col.ObserveKernel(w.kern)
		}
		p.workers = append(p.workers, w)
		p.done.Add(1)
		go p.loop(w)
	}
	return p
}

// Execute runs every call of the batch and returns when all have finished,
// reporting the first failure (an invalid call panics inside DGEFMM; the
// pool converts that to an error and keeps serving). Calls are executed
// concurrently across the pool's workers; the slice and the operand buffers
// must stay valid until Execute returns. Concurrent Execute calls from
// several goroutines interleave safely at call granularity.
func (p *Pool) Execute(calls []Call) error {
	if p.closed.Load() {
		return errors.New("batch: Execute on closed pool")
	}
	var wg sync.WaitGroup
	var slot errSlot
	wg.Add(len(calls))
	prof := phase.Active()
	for i := range calls {
		c := &calls[i]
		j := job{call: c, bkt: p.bucketFor(c), wg: &wg, err: &slot}
		if prof != nil {
			j.enqueued = time.Now()
		}
		p.jobs <- j
		if p.queueDepth != nil {
			p.queueDepth.Set(int64(len(p.jobs)))
		}
	}
	wg.Wait()
	return slot.get()
}

// ExecuteEach runs every call of the batch like Execute but reports a
// per-call outcome: the i-th error corresponds to calls[i], nil meaning
// success. A call whose Ctx is done before a worker picks it up is skipped
// and receives its context's error (wrapped, so errors.Is sees
// context.DeadlineExceeded/Canceled); the other calls proceed. This is the
// granularity network serving needs — one coalesced batch carries many
// independent requests with independent deadlines, and one late request
// must not fail its neighbors.
func (p *Pool) ExecuteEach(calls []Call) []error {
	errs := make([]error, len(calls))
	if p.closed.Load() {
		err := errors.New("batch: ExecuteEach on closed pool")
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	var wg sync.WaitGroup
	wg.Add(len(calls))
	prof := phase.Active()
	for i := range calls {
		c := &calls[i]
		j := job{call: c, bkt: p.bucketFor(c), wg: &wg, errAt: &errs[i]}
		if prof != nil {
			j.enqueued = time.Now()
		}
		p.jobs <- j
		if p.queueDepth != nil {
			p.queueDepth.Set(int64(len(p.jobs)))
		}
	}
	wg.Wait()
	return errs
}

// Close drains outstanding work and stops the workers. The pool must not
// be used afterwards; Close is idempotent. Do not race Close with Execute.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.jobs)
		p.done.Wait()
	}
}

// Multiply is the one-shot convenience form: it runs the batch through a
// transient pool with default sizing and closes it. For repeated batches
// keep a Pool — that is what amortizes plans and arena warmup.
func Multiply(cfg *strassen.Config, calls []Call) error {
	p := NewPool(&Options{Config: cfg})
	defer p.Close()
	return p.Execute(calls)
}

// loop is one worker goroutine.
func (p *Pool) loop(w *worker) {
	defer p.done.Done()
	for j := range p.jobs {
		p.run(w, j)
	}
}

// run executes one call on a worker, translating panics (argument errors
// surface that way, matching DGEMM) into the batch's error slot.
func (p *Pool) run(w *worker, j job) {
	defer j.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			j.fail(fmt.Errorf("batch: call m=%d n=%d k=%d failed: %v",
				j.call.M, j.call.N, j.call.K, r))
		}
	}()
	if p.queueDepth != nil {
		p.queueDepth.Set(int64(len(p.jobs)))
	}
	if !j.enqueued.IsZero() {
		phase.Active().Add(phase.BatchQueueWait, int64(time.Since(j.enqueued)), 0, 0)
	}
	if ctx := j.call.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			j.fail(fmt.Errorf("batch: call m=%d n=%d k=%d canceled before start: %w",
				j.call.M, j.call.N, j.call.K, err))
			return
		}
	}
	cfg := p.base
	cfg.Kernel = w.kern
	cfg.Tracker = w.tracker
	var start time.Time
	if j.bkt.hist != nil {
		start = time.Now()
	}
	c := j.call
	var err error
	if p.sched != nil {
		// Routed execution: the pool worker is a pure submitter. The call
		// runs as a task DAG on the shared runtime, so intra-call
		// parallelism across every concurrent call draws from the
		// runtime's single worker budget.
		rctx := c.Ctx
		if rctx == nil {
			rctx = context.Background()
		}
		d := sched.NewDAG()
		d.Add(func(wk *sched.Worker) {
			err = strassen.DGEFMMTask(rctx, wk, &cfg, c.TransA, c.TransB,
				c.M, c.N, c.K, c.Alpha, c.A, c.Lda, c.B, c.Ldb, c.Beta, c.C, c.Ldc)
		})
		if rerr := p.sched.Run(rctx, d); err == nil {
			err = rerr
		}
	} else {
		err = strassen.DGEFMMCtx(c.Ctx, &cfg, c.TransA, c.TransB, c.M, c.N, c.K, c.Alpha,
			c.A, c.Lda, c.B, c.Ldb, c.Beta, c.C, c.Ldc)
	}
	if err != nil {
		j.fail(fmt.Errorf("batch: call m=%d n=%d k=%d: %w", c.M, c.N, c.K, err))
		return
	}
	if j.bkt.hist != nil {
		j.bkt.hist.Observe(time.Since(start))
	}
	p.ncalls.Add(1)
	if p.calls != nil {
		p.calls.Add(1)
	}
	if p.arenaReuse != nil {
		if r := w.tracker.Reused(); r > w.lastReused {
			p.arenaReuse.Add(r - w.lastReused)
			w.lastReused = r
		}
	}
}

// bucketFor returns (planning on first sight) the shape bucket of a call.
func (p *Pool) bucketFor(c *Call) *bucket {
	key := bucketKey{
		m: c.M, n: c.N, k: c.K,
		transA: c.TransA.IsTrans(), transB: c.TransB.IsTrans(),
		betaZero: c.Beta == 0,
	}
	p.mu.RLock()
	b := p.buckets[key]
	p.mu.RUnlock()
	if b != nil {
		return b
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if b = p.buckets[key]; b != nil {
		return b
	}
	b = &bucket{plan: strassen.PlanFor(&p.base, key.m, key.n, key.k, key.betaZero)}
	if p.col != nil {
		beta := "beta0"
		if !key.betaZero {
			beta = "betaN"
		}
		b.hist = p.col.Registry.Histogram(
			fmt.Sprintf("batch.bucket.%dx%dx%d.%s.ns", key.m, key.k, key.n, beta))
	}
	p.buckets[key] = b
	return b
}

// Stats is a snapshot of a pool's activity and arena accounting.
type Stats struct {
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Calls is the number of completed calls since creation.
	Calls int64 `json:"calls"`
	// Buckets is the number of distinct shape classes planned so far.
	Buckets int `json:"buckets"`
	// Arenas holds each worker arena's workspace accounting; Peak is the
	// figure the paper's Table 1 bounds (per worker, not per batch).
	Arenas []memtrack.Stats `json:"arenas"`
	// PlanWords is the largest planned workspace requirement across
	// buckets — the steady-state words each worker arena converges to
	// at most.
	PlanWords int64 `json:"plan_words"`
}

// Stats snapshots the pool.
func (p *Pool) Stats() Stats {
	s := Stats{Workers: len(p.workers), Calls: p.ncalls.Load()}
	for _, w := range p.workers {
		s.Arenas = append(s.Arenas, w.tracker.Stats())
	}
	p.mu.RLock()
	s.Buckets = len(p.buckets)
	for _, b := range p.buckets {
		if b.plan.Words > s.PlanWords {
			s.PlanWords = b.plan.Words
		}
	}
	p.mu.RUnlock()
	return s
}

// Plans returns the execution plans of every shape bucket seen so far.
func (p *Pool) Plans() []*strassen.Plan {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*strassen.Plan, 0, len(p.buckets))
	for _, b := range p.buckets {
		out = append(out, b.plan)
	}
	return out
}
