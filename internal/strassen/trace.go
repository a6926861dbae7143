package strassen

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// TraceEvent records one decision in the DGEFMM recursion: which action was
// taken at which depth on which problem shape. Tracing exists so users (and
// this repository's own tests) can see *why* a multiply performed the way
// it did — how deep the recursion went, where peeling fired, where the
// cutoff stopped recursion.
type TraceEvent struct {
	// Depth is the recursion depth (0 = the top-level call).
	Depth int
	// M, K, N are the problem dimensions at this node.
	M, K, N int
	// Action identifies the node kind: "base" (cutoff reached, DGEMM ran),
	// a level program's name — "strassen1", "strassen2", "original",
	// "table", "parallel" (task DAG) or "fused1" —, "peel", "peel-first",
	// "pad-dynamic", "pad-static" (odd handling), or "fixup-ger",
	// "fixup-col", "fixup-row", "fixup-gemm-k/n/m" (peeling repairs). A
	// level node on a shape the grid does not divide, or below such a
	// node, is a level padding virtually (no "peel" node and no fixups
	// around it).
	Action string
}

// Tracer receives recursion events. Implementations must be safe for
// concurrent use when the parallel schedule is enabled.
type Tracer interface {
	// Event is called once per recursion decision.
	Event(TraceEvent)
}

// SpanTracer is an optional extension of Tracer. When the installed tracer
// implements it, the engine brackets every traced node with a
// BeginSpan/EndSpan pair in addition to the Event call, so implementations
// can measure per-node wall time and reconstruct the recursion tree: the
// span for a node stays open for the node's entire subtree (the seven
// recursive products, the peeling fixups, the stage-(4) combinations), and
// every child span carries its parent's ID.
//
// IDs are assigned by the implementation; 0 is reserved for "no parent"
// (the top-level call) and negative IDs mean "dropped" — the engine passes
// them back as parents unchanged, so an implementation that sheds load can
// drop whole subtrees by returning a negative ID. Implementations must be
// safe for concurrent use when the parallel schedule is enabled; Begin/End
// pairs for one node always run on the same goroutine.
type SpanTracer interface {
	Tracer
	// BeginSpan opens a span for the event under the given parent span ID
	// and returns the new span's ID.
	BeginSpan(parent int64, e TraceEvent) int64
	// EndSpan closes the span opened as id.
	EndSpan(id int64)
}

// CountTracer tallies events by action and tracks the deepest recursion;
// it is the cheap always-on summary.
type CountTracer struct {
	mu       sync.Mutex
	counts   map[string]int
	maxDepth int
	events   int
}

// NewCountTracer returns an empty tracer.
func NewCountTracer() *CountTracer {
	return &CountTracer{counts: make(map[string]int)}
}

// Event implements Tracer.
func (t *CountTracer) Event(e TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[e.Action]++
	t.events++
	if e.Depth > t.maxDepth {
		t.maxDepth = e.Depth
	}
}

// Count returns how many events carried the action.
func (t *CountTracer) Count(action string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[action]
}

// MaxDepth returns the deepest recursion seen.
func (t *CountTracer) MaxDepth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxDepth
}

// Total returns the total event count.
func (t *CountTracer) Total() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// String renders the tally in a stable order.
func (t *CountTracer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.counts))
	for k := range t.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "depth≤%d:", t.maxDepth)
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%d", k, t.counts[k])
	}
	return sb.String()
}

// LogTracer records the full event sequence (top-level-call order is
// deterministic for sequential configurations).
type LogTracer struct {
	mu     sync.Mutex
	Events []TraceEvent
}

// Event implements Tracer.
func (t *LogTracer) Event(e TraceEvent) {
	t.mu.Lock()
	t.Events = append(t.Events, e)
	t.mu.Unlock()
}

// noopDone is the shared no-op span closer returned when nothing needs
// closing, so the traced fast paths allocate nothing.
var noopDone = func() {}

// trace emits an event if a tracer is installed and, when the tracer also
// records spans, opens a span covering the node's whole subtree. The caller
// must invoke the returned function when the node's work (including
// recursive children) is complete. With no tracer installed this is two
// predictable branches and zero allocations — the nil-collector fast path.
func (e *engine) trace(depth int, m, k, n int, action string) func() {
	if e.tracer == nil {
		return noopDone
	}
	ev := TraceEvent{Depth: depth, M: m, K: k, N: n, Action: action}
	e.tracer.Event(ev)
	if e.spans == nil {
		return noopDone
	}
	parent := e.curSpan
	id := e.spans.BeginSpan(parent, ev)
	e.curSpan = id
	return func() {
		e.spans.EndSpan(id)
		e.curSpan = parent
	}
}
