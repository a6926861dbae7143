package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/strassen"
)

// Span is one timed node of the DGEFMM recursion tree: the trace event's
// identity (action, depth, problem shape) plus wall-clock timing relative
// to the recorder's epoch.
type Span struct {
	// ID is the span's identifier (≥ 1); Parent is the enclosing span's ID,
	// 0 for a root.
	ID     int64 `json:"id"`
	Parent int64 `json:"parent,omitempty"`
	// Action, Depth, M, K, N mirror the strassen.TraceEvent fields.
	Action string `json:"action"`
	Depth  int    `json:"depth"`
	M      int    `json:"m"`
	K      int    `json:"k"`
	N      int    `json:"n"`
	// StartNS is nanoseconds since the recorder's epoch; DurNS is the span's
	// wall time, or -1 while the span is still open.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// Flops is the standard-algorithm operation count 2mkn of the span's
// problem. For schedule spans this is the *effective* count — the work a
// standard multiply would have needed — which is exactly the convention the
// paper's MFLOPS plots use.
func (s Span) Flops() float64 {
	return 2 * float64(s.M) * float64(s.K) * float64(s.N)
}

// GFLOPS is the span's effective compute rate (2mkn per wall second,
// in units of 10⁹); 0 while open or for zero-duration spans.
func (s Span) GFLOPS() float64 {
	if s.DurNS <= 0 {
		return 0
	}
	// flops per nanosecond ≡ Gflop/s.
	return s.Flops() / float64(s.DurNS)
}

// SpanRecorder implements strassen.SpanTracer: it records every traced
// recursion node as a timed, parented Span. It is safe for concurrent use
// by calls that share it.
type SpanRecorder struct {
	// Limit bounds the number of recorded spans (0 = unlimited). Once
	// reached, whole subtrees are dropped — BeginSpan returns a negative ID
	// and descendants of dropped spans are not recorded — while event
	// counting elsewhere stays exact. Dropped() reports how many were shed.
	Limit int

	epoch   time.Time
	mu      sync.Mutex
	spans   []Span
	open    int
	dropped int64
}

// NewSpanRecorder returns an empty recorder with its epoch set to now and
// the DefaultSpanLimit installed.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{Limit: DefaultSpanLimit, epoch: time.Now()}
}

// DefaultSpanLimit bounds recorded spans in NewSpanRecorder (≈ 88 MB of
// spans at worst); long sweeps that want everything can raise or zero the
// limit explicitly.
const DefaultSpanLimit = 1 << 20

// Event implements strassen.Tracer. The recorder takes everything it needs
// from the BeginSpan/EndSpan bracket, so the plain event stream is ignored;
// counting lives in the Collector's metrics.
func (r *SpanRecorder) Event(strassen.TraceEvent) {}

// BeginSpan implements strassen.SpanTracer.
func (r *SpanRecorder) BeginSpan(parent int64, e strassen.TraceEvent) int64 {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent < 0 || (r.Limit > 0 && len(r.spans) >= r.Limit) {
		r.dropped++
		return -1
	}
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent,
		Action: e.Action, Depth: e.Depth, M: e.M, K: e.K, N: e.N,
		StartNS: now, DurNS: -1,
	})
	r.open++
	return id
}

// EndSpan implements strassen.SpanTracer.
func (r *SpanRecorder) EndSpan(id int64) { r.end(id) }

// end closes the span and returns it (zero Span, false for dropped or
// unknown IDs).
func (r *SpanRecorder) end(id int64) (Span, bool) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 1 || id > int64(len(r.spans)) {
		return Span{}, false
	}
	s := &r.spans[id-1]
	if s.DurNS < 0 {
		s.DurNS = now - s.StartNS
		r.open--
	}
	return *s, true
}

// Spans returns a copy of all recorded spans in ID order.
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Len returns the number of recorded spans.
func (r *SpanRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Open returns how many spans are currently open (0 after every DGEFMM
// call has returned).
func (r *SpanRecorder) Open() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open
}

// Dropped returns how many spans were shed by the Limit.
func (r *SpanRecorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset discards all recorded spans and restarts the epoch.
func (r *SpanRecorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = nil
	r.open = 0
	r.dropped = 0
	r.epoch = time.Now()
}

// SpanNode is a Span with resolved children, for tree-shaped JSON export.
type SpanNode struct {
	Span
	GFLOPS   float64     `json:"gflops"`
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree resolves the recorded spans into their recursion forest (one root
// per traced top-level call), children ordered by start time.
func (r *SpanRecorder) Tree() []*SpanNode {
	spans := r.Spans()
	nodes := make(map[int64]*SpanNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &SpanNode{Span: s, GFLOPS: s.GFLOPS()}
	}
	var roots []*SpanNode
	for _, s := range spans {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	order := func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].StartNS < ns[j].StartNS })
	}
	for _, n := range nodes {
		order(n.Children)
	}
	order(roots)
	return roots
}

// WriteJSON writes the recursion forest as indented JSON.
func (r *SpanRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Spans []*SpanNode `json:"spans"`
	}{r.Tree()})
}

// chromeEvent is one Chrome trace-event ("X" = complete event with
// timestamp and duration, microsecond units).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the spans in Chrome trace-event format (a JSON
// array of complete events), loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. A call's spans nest on its calling goroutine, so they
// share one track.
func (r *SpanRecorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.DurNS < 0 {
			continue // still open; a finished call never leaves these behind
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s %dx%dx%d", s.Action, s.M, s.K, s.N),
			Cat:  "dgefmm",
			Ph:   "X",
			TS:   float64(s.StartNS) / 1e3,
			Dur:  float64(s.DurNS) / 1e3,
			PID:  1,
			TID:  1,
			Args: map[string]any{
				"depth":  s.Depth,
				"gflops": s.GFLOPS(),
				"span":   s.ID,
				"parent": s.Parent,
			},
		})
	}
	return json.NewEncoder(w).Encode(events)
}
