package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// DAG is a set of tasks with dependency edges, built with Add and executed
// once via a Submitter's Run. Dependencies are declared at Add time by
// naming already-added nodes; a node becomes runnable when every
// dependency has finished. Each output buffer in a well-formed DAG is
// written by exactly one task, so results are independent of execution
// order — the property that makes parallel runs bit-for-bit equal to
// sequential ones on a deterministic kernel, and that FuzzDGEFMM pins for
// whole multiplies.
//
// Add may also be called from inside a running task (the node is enqueued
// immediately), but every dependency passed must already be part of the
// DAG and the DAG must not have drained.
type DAG struct {
	mu      sync.Mutex
	pending int64 // nodes added but not yet completed
	started bool
	enq     func(*Node)
	ready   []*Node

	doneCh chan struct{}
	ctx    context.Context

	// panicked records that a task body panicked; panicVal is the first
	// panic's value, re-raised by Run on the submitting goroutine.
	panicked atomic.Bool
	panicVal any
}

// Node is one task in a DAG, used only as a dependency handle for Add.
type Node struct {
	d       *DAG
	run     Task
	pending atomic.Int32 // unfinished dependencies (+1 construction guard)

	mu    sync.Mutex
	done  bool
	succs []*Node
}

// NewDAG returns an empty DAG ready for Add.
func NewDAG() *DAG {
	return &DAG{doneCh: make(chan struct{}), ctx: context.Background()}
}

// ErrStarted is returned by Run when the DAG was already run once.
var ErrStarted = errors.New("sched: DAG already started")

// Add inserts a task that runs after every listed dependency completes
// and returns its node for use as a dependency of later tasks.
func (d *DAG) Add(t Task, deps ...*Node) *Node {
	n := &Node{d: d, run: t}
	// The +1 guard keeps the node unrunnable while edges are wired, even
	// if an already-running dependency completes mid-loop.
	n.pending.Store(1)
	d.mu.Lock()
	d.pending++
	d.mu.Unlock()
	for _, dep := range deps {
		if dep == nil || dep.d != d {
			panic("sched: dependency from a different DAG")
		}
		dep.mu.Lock()
		if !dep.done {
			n.pending.Add(1)
			dep.succs = append(dep.succs, n)
		}
		dep.mu.Unlock()
	}
	if n.pending.Add(-1) == 0 {
		d.markReady(n)
	}
	return n
}

// markReady hands a node with no unfinished dependencies to the enqueue
// function, or parks it until Run provides one.
func (d *DAG) markReady(n *Node) {
	d.mu.Lock()
	if !d.started {
		d.ready = append(d.ready, n)
		d.mu.Unlock()
		return
	}
	enq := d.enq
	d.mu.Unlock()
	enq(n)
}

// start transitions the DAG to executing: records the context consulted
// before each task body, flushes buffered ready nodes through enq, and
// closes doneCh immediately for an empty DAG.
func (d *DAG) start(ctx context.Context, rt *Runtime, enq func(*Node)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return ErrStarted
	}
	d.started = true
	d.ctx = ctx
	d.enq = enq
	ready := d.ready
	d.ready = nil
	empty := d.pending == 0
	d.mu.Unlock()
	if empty {
		close(d.doneCh)
		return nil
	}
	for _, n := range ready {
		enq(n)
	}
	return nil
}

// recordPanic stores the first task panic; later bodies are skipped.
func (d *DAG) recordPanic(v any) {
	d.mu.Lock()
	if !d.panicked.Load() {
		d.panicVal = v
		d.panicked.Store(true)
	}
	d.mu.Unlock()
}

// repanic re-raises a recorded task panic with its original value.
func (d *DAG) repanic() {
	if d.panicked.Load() {
		d.mu.Lock()
		v := d.panicVal
		d.mu.Unlock()
		panic(v)
	}
}

// complete runs after a node's body (or its cancellation skip): releases
// successors whose last dependency this was, then retires the node from
// the DAG's pending count, closing doneCh on zero.
func (n *Node) complete(w *Worker) {
	n.mu.Lock()
	n.done = true
	succs := n.succs
	n.succs = nil
	n.mu.Unlock()
	for _, s := range succs {
		if s.pending.Add(-1) == 0 {
			if w != nil {
				w.push(s)
			} else {
				n.d.inject(s)
			}
		}
	}
	d := n.d
	d.mu.Lock()
	d.pending--
	fin := d.pending == 0 && d.started
	d.mu.Unlock()
	if fin {
		close(d.doneCh)
	}
}

// inject routes a ready node through the DAG's enqueue function (used when
// no worker context is available).
func (d *DAG) inject(n *Node) {
	d.mu.Lock()
	enq := d.enq
	d.mu.Unlock()
	enq(n)
}

// RunInline executes the DAG on the calling goroutine with no scheduler —
// a topological-order sequential walk. It exists for differential testing
// (parallel vs sequential execution of the identical DAG) and as the
// degenerate path when no runtime is available. Task bodies receive a nil
// Worker-free handle from a private single-worker shim, so bodies that
// only use w.Index()/w.Run must tolerate it; bodies built by this
// repository's DAG builders do.
func (d *DAG) RunInline(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return ErrStarted
	}
	d.started = true
	d.ctx = ctx
	var queue []*Node
	d.enq = func(n *Node) { queue = append(queue, n) }
	queue = append(queue, d.ready...)
	d.ready = nil
	empty := d.pending == 0
	d.mu.Unlock()
	if empty {
		close(d.doneCh)
		return nil
	}
	for len(queue) > 0 {
		n := queue[0]
		copy(queue, queue[1:])
		queue = queue[:len(queue)-1]
		if n.run != nil && ctx.Err() == nil {
			n.run(nil)
		}
		n.complete(nil)
	}
	return ctx.Err()
}
