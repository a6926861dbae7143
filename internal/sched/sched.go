// Package sched is the multi-core task runtime underneath DGEFMM's parallel
// paths: a work-stealing fork-join scheduler in the Cilk/TBB mold, sized to
// GOMAXPROCS, on which the Strassen engine runs its seven Winograd products
// (and the R products of any ⟨m,k,n⟩ table algorithm) as a dependency DAG,
// the packed kernel threads its leaves' rows, and the batch pool draws its core
// budget.
//
// The design replaces three overlapping parallel mechanisms (the flat
// product fan-out of strassen.Config.Parallel, blas.ParallelKernel's
// column-split goroutines, and batch.Pool's fixed worker goroutines) with
// one shared pool: every unit of parallel work in the process becomes a
// task on one Runtime, so concurrently-running tasks never exceed the
// worker count by construction — the paper's processors-share-one-machine
// model, and the fix for the pool's historic core oversubscription.
//
// Topology: each worker owns a LIFO deque (newest-first execution keeps a
// worker on the subtree it just forked, the cache-friendly order), thieves
// take the oldest task from a random victim (the biggest-subtree end), and
// an injector queue receives work submitted from outside the pool. Nested
// parallelism never blocks a worker: a task that submits a sub-DAG helps —
// it executes scheduler tasks (its own sub-DAG's first, then anyone's)
// until the sub-DAG completes, so recursion depth adds no idle workers and
// cannot deadlock the fixed-size pool.
//
// The scheduler's own overheads are attributed through internal/phase
// (sched.task_run, sched.steal, sched.idle), so a roofline report shows
// where the cores went; absence of a profiler costs an atomic load per
// bracket, as everywhere else in the tree.
package sched

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/phase"
)

// Task is one schedulable unit. The worker handle lets the body submit
// nested sub-DAGs via w.Run (helping, never blocking the pool) and reach
// per-worker scratch via w.Index.
type Task func(w *Worker)

// Submitter runs a DAG to completion. Both *Runtime (external callers;
// blocks the calling goroutine) and *Worker (from inside a task; helps run
// tasks while waiting) implement it, so code that forks subtrees does not
// care whether it is already on the pool.
type Submitter interface {
	// Run executes every task in d respecting dependencies and returns
	// when all have completed. If ctx is canceled mid-run, remaining task
	// bodies are skipped (the DAG still drains so resources owned by the
	// caller are safe to release on return) and ctx.Err() is returned. If
	// a task body panics, the remaining bodies are skipped the same way
	// and, once the DAG has drained, Run panics with the first panic's
	// value on the calling goroutine; the workers keep serving.
	Run(ctx context.Context, d *DAG) error
	// Workers reports the pool size, for sizing fan-out.
	Workers() int
}

// Runtime is a fixed pool of worker goroutines executing task DAGs.
// Create with New, share freely (all methods are safe for concurrent
// use), and Close when done — except the process-wide Shared runtime,
// which lives for the life of the process like the runtime's own
// scheduler.
type Runtime struct {
	workers []*Worker
	wg      sync.WaitGroup

	injMu    sync.Mutex
	injector []*Node

	wake   chan struct{}
	closed chan struct{}
	once   sync.Once

	idle atomic.Int32 // workers currently parked or about to park

	seed int64

	// stats
	tasksRun   atomic.Int64
	steals     atomic.Int64
	idleNS     atomic.Int64
	running    atomic.Int64
	maxRunning atomic.Int64

	// stealHook, when non-nil, observes every successful steal
	// (thief, victim worker indices). Test instrumentation; set before
	// submitting work.
	stealHook func(thief, victim int)
}

// Worker is one scheduler thread's handle, passed to every task it runs.
type Worker struct {
	rt  *Runtime
	idx int
	rng *rand.Rand

	// depth is the worker goroutine's task-nesting level (a task body
	// that calls Worker.Run executes further tasks inside the outer
	// frame). Touched only by the owning goroutine; it keeps the running
	// gauge counting busy *workers*, not nested frames, so MaxRunning
	// honors its ≤ Workers contract.
	depth int

	mu    sync.Mutex
	deque []*Node // owner pushes/pops at tail (LIFO); thieves pop at head
}

// Index is the worker's stable identity in [0, Workers()), for indexing
// per-worker scratch arenas.
func (w *Worker) Index() int { return w.idx }

// Workers implements Submitter.
func (w *Worker) Workers() int { return len(w.rt.workers) }

// New returns a started Runtime with n workers (n < 1 is clamped to 1).
// The steal victim order is derived from the given seed, so two runtimes
// built with the same seed and worker count make identical victim
// choices; pass 0 for an arbitrary fixed default.
func New(n int, seed int64) *Runtime {
	rt := build(n, seed)
	rt.wg.Add(len(rt.workers))
	for _, w := range rt.workers {
		go rt.loop(w)
	}
	return rt
}

// build assembles a Runtime without starting its worker goroutines.
// Factored from New so tests can exercise seed-determined machinery
// (victim order) without live workers racing on the RNGs.
func build(n int, seed int64) *Runtime {
	if n < 1 {
		n = 1
	}
	rt := &Runtime{
		wake:   make(chan struct{}, n),
		closed: make(chan struct{}),
		seed:   seed,
	}
	rt.workers = make([]*Worker, n)
	for i := range rt.workers {
		rt.workers[i] = &Worker{rt: rt, idx: i, rng: rand.New(rand.NewSource(seed + int64(i)*0x9e3779b9))}
	}
	return rt
}

var (
	sharedOnce sync.Once
	sharedRT   *Runtime
)

// Shared returns the process-wide runtime, created on first use with
// GOMAXPROCS workers. It is never closed; every subsystem that defaults
// its parallelism (strassen DAG execution, the threaded kernel loop, the
// batch pool) draws from this one pool so the process never oversubscribes
// cores.
func Shared() *Runtime {
	sharedOnce.Do(func() {
		sharedRT = New(runtime.GOMAXPROCS(0), 0)
	})
	return sharedRT
}

// Workers implements Submitter.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// Close stops the workers and waits for them to exit. Callers must not
// submit after Close; in-flight Runs must have returned.
func (rt *Runtime) Close() {
	rt.once.Do(func() { close(rt.closed) })
	rt.wg.Wait()
}

// Stats is a point-in-time snapshot of scheduler activity.
type Stats struct {
	Workers    int   `json:"workers"`
	TasksRun   int64 `json:"tasks_run"`
	Steals     int64 `json:"steals"`
	IdleNS     int64 `json:"idle_ns"`
	MaxRunning int64 `json:"max_running"`
}

// Stats reports cumulative counters: tasks executed, successful steals,
// nanoseconds workers spent parked, and the high-water mark of
// simultaneously busy workers — a worker nested in sub-DAG frames counts
// once, so MaxRunning never exceeds Workers (the no-oversubscription
// invariant batch's regression test pins).
func (rt *Runtime) Stats() Stats {
	return Stats{
		Workers:    len(rt.workers),
		TasksRun:   rt.tasksRun.Load(),
		Steals:     rt.steals.Load(),
		IdleNS:     rt.idleNS.Load(),
		MaxRunning: rt.maxRunning.Load(),
	}
}

// Run implements Submitter for external callers: ready tasks go to the
// injector queue and the calling goroutine blocks until the DAG drains.
func (rt *Runtime) Run(ctx context.Context, d *DAG) error {
	if err := d.start(ctx, rt, rt.inject); err != nil {
		return err
	}
	<-d.doneCh
	d.repanic()
	return ctx.Err()
}

// Run implements Submitter for nested submission from inside a task: the
// sub-DAG's ready tasks go onto this worker's own deque (LIFO, so the
// worker descends into its own subtree first) and the worker helps —
// executing scheduler tasks, stealing when its deque runs dry — until the
// sub-DAG completes. The worker never parks while its sub-DAG is live, so
// a pool of W workers progresses W nested Runs without deadlock.
func (w *Worker) Run(ctx context.Context, d *DAG) error {
	if err := d.start(ctx, w.rt, w.push); err != nil {
		return err
	}
	for {
		select {
		case <-d.doneCh:
			d.repanic()
			return ctx.Err()
		default:
		}
		if n := w.find(); n != nil {
			w.rt.runNode(w, n)
			continue
		}
		// Nothing runnable anywhere: the sub-DAG's stragglers are running
		// on other workers. Wait for either completion or fresh work.
		w.rt.idle.Add(1)
		if n := w.find(); n != nil { // re-check after advertising idleness
			w.rt.idle.Add(-1)
			w.rt.runNode(w, n)
			continue
		}
		sm := phase.Active().Begin(phase.SchedIdle)
		t0 := time.Now()
		select {
		case <-d.doneCh:
		case <-w.rt.wake:
		}
		w.rt.idleNS.Add(time.Since(t0).Nanoseconds())
		sm.End(0, 0)
		w.rt.idle.Add(-1)
	}
}

// inject adds a ready node to the global injector queue.
func (rt *Runtime) inject(n *Node) {
	rt.injMu.Lock()
	rt.injector = append(rt.injector, n)
	rt.injMu.Unlock()
	rt.notify()
}

// popInject removes the oldest injected node.
func (rt *Runtime) popInject() *Node {
	rt.injMu.Lock()
	defer rt.injMu.Unlock()
	if len(rt.injector) == 0 {
		return nil
	}
	n := rt.injector[0]
	copy(rt.injector, rt.injector[1:])
	rt.injector = rt.injector[:len(rt.injector)-1]
	return n
}

// push adds a ready node to the worker's own deque (tail = LIFO end).
func (w *Worker) push(n *Node) {
	w.mu.Lock()
	w.deque = append(w.deque, n)
	w.mu.Unlock()
	w.rt.notify()
}

// popLocal takes the newest task from the worker's own deque.
func (w *Worker) popLocal() *Node {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.deque) == 0 {
		return nil
	}
	n := w.deque[len(w.deque)-1]
	w.deque = w.deque[:len(w.deque)-1]
	return n
}

// stealFrom takes the oldest task from a victim's deque (FIFO end — the
// root of the victim's largest unexplored subtree).
func (v *Worker) stealFrom() *Node {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.deque) == 0 {
		return nil
	}
	n := v.deque[0]
	copy(v.deque, v.deque[1:])
	v.deque = v.deque[:len(v.deque)-1]
	return n
}

// victimOrder fills order with a seeded random permutation of the other
// workers' indices — the scan order for one steal round. Factored out so
// the deterministic-seed test can pin it.
func (w *Worker) victimOrder(order []int) []int {
	order = order[:0]
	n := len(w.rt.workers)
	for i := 0; i < n; i++ {
		if i != w.idx {
			order = append(order, i)
		}
	}
	w.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// find locates the next runnable node: own deque first (LIFO), then the
// injector, then one steal round over the other workers in seeded random
// order. Returns nil when every queue is empty.
func (w *Worker) find() *Node {
	if n := w.popLocal(); n != nil {
		return n
	}
	if n := w.rt.popInject(); n != nil {
		return n
	}
	if len(w.rt.workers) == 1 {
		return nil
	}
	sm := phase.Active().Begin(phase.SchedSteal)
	var buf [16]int
	order := buf[:0]
	if len(w.rt.workers)-1 > len(buf) {
		order = make([]int, 0, len(w.rt.workers)-1)
	}
	for _, vi := range w.victimOrder(order) {
		if n := w.rt.workers[vi].stealFrom(); n != nil {
			w.rt.steals.Add(1)
			if h := w.rt.stealHook; h != nil {
				h(w.idx, vi)
			}
			sm.End(0, 0)
			return n
		}
	}
	sm.End(0, 0)
	return nil
}

// notify wakes one parked worker if any are parked. Tokens are
// conservative (spurious wakeups cause one extra empty scan); the
// advertise-then-rescan protocol in the park paths closes the lost-wakeup
// race.
func (rt *Runtime) notify() {
	if rt.idle.Load() == 0 {
		return
	}
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// runNode executes one node: the body unless the DAG's context is already
// canceled or another body panicked (both drain the DAG by skipping
// bodies, so a multiply past its deadline stops between products, not
// after the whole call), then dependency bookkeeping either way. A
// panicking body is recovered here and recorded on its DAG, so it cannot
// kill the worker goroutine or the process; Run re-raises it.
func (rt *Runtime) runNode(w *Worker, n *Node) {
	w.depth++
	if w.depth == 1 { // nested frames are the same busy worker, count once
		r := rt.running.Add(1)
		for {
			max := rt.maxRunning.Load()
			if r <= max || rt.maxRunning.CompareAndSwap(max, r) {
				break
			}
		}
	}
	if n.run != nil && n.d.ctx.Err() == nil && !n.d.panicked.Load() {
		runBody(w, n)
	}
	rt.tasksRun.Add(1)
	if w.depth == 1 {
		rt.running.Add(-1)
	}
	w.depth--
	n.complete(w)
}

// runBody runs a node's task under the task-run phase bracket, recording
// a panic on the node's DAG instead of propagating it.
func runBody(w *Worker, n *Node) {
	sm := phase.Active().Begin(phase.SchedTaskRun)
	defer func() {
		sm.End(0, 0)
		if r := recover(); r != nil {
			n.d.recordPanic(r)
		}
	}()
	n.run(w)
}

// loop is one worker goroutine's life: find work, run it, park when the
// whole pool is dry, exit on Close.
func (rt *Runtime) loop(w *Worker) {
	defer rt.wg.Done()
	for {
		if n := w.find(); n != nil {
			rt.runNode(w, n)
			continue
		}
		rt.idle.Add(1)
		if n := w.find(); n != nil { // re-check after advertising idleness
			rt.idle.Add(-1)
			rt.runNode(w, n)
			continue
		}
		sm := phase.Active().Begin(phase.SchedIdle)
		t0 := time.Now()
		select {
		case <-rt.wake:
		case <-rt.closed:
			rt.idleNS.Add(time.Since(t0).Nanoseconds())
			sm.End(0, 0)
			rt.idle.Add(-1)
			return
		}
		rt.idleNS.Add(time.Since(t0).Nanoseconds())
		sm.End(0, 0)
		rt.idle.Add(-1)
	}
}
