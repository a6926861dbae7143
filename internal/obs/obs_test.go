package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/sched"
	"repro/internal/strassen"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Add(2)
	r.Gauge("g").Set(7)
	r.Gauge("g").SetMax(5) // must not lower
	r.Gauge("g").SetMax(9)
	r.FloatGauge("f").Set(2.5)
	r.Histogram("h").Observe(100 * time.Nanosecond)
	r.Histogram("h").Observe(3 * time.Microsecond)

	s := r.Snapshot()
	if s.Counters["a"] != 5 {
		t.Errorf("counter = %d, want 5", s.Counters["a"])
	}
	if s.Gauges["g"] != 9 {
		t.Errorf("gauge = %d, want 9", s.Gauges["g"])
	}
	if s.FloatGauges["f"] != 2.5 {
		t.Errorf("float gauge = %v, want 2.5", s.FloatGauges["f"])
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.SumNanos != 3100 {
		t.Errorf("histogram count=%d sum=%d, want 2/3100", h.Count, h.SumNanos)
	}
	if q := h.Quantile(0.99); q < 3000 {
		t.Errorf("p99 = %dns, want ≥ 3000", q)
	}
	if q := h.Quantile(0); q > 256 {
		t.Errorf("p0 upper bound = %dns, want ≤ 256 (the 100ns bucket)", q)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["a"] != 5 {
		t.Error("round-tripped counter lost")
	}
	if got := r.Names(); len(got) != 4 {
		t.Errorf("Names() = %v, want 4 entries", got)
	}
}

// run multiplies m×k by k×n through DGEFMM with the given config and
// returns the call's wall time.
func run(cfg *strassen.Config, m, k, n int, seed int64) time.Duration {
	rng := rand.New(rand.NewSource(seed))
	a := matrix.NewRandom(m, k, rng)
	b := matrix.NewRandom(k, n, rng)
	c := matrix.NewDense(m, n)
	start := time.Now()
	strassen.DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1,
		a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	return time.Since(start)
}

// TestCollectorMatchesCountTracer is the acceptance check: a 512×512 DGEFMM
// call with a collector attached produces a span tree whose per-action
// counts match an identical run under the existing CountTracer, whose root
// wall time agrees with the call duration, and which exports valid Chrome
// trace-event JSON.
func TestCollectorMatchesCountTracer(t *testing.T) {
	const order = 512
	kern := blas.KernelByName("blocked")

	// Reference run: the pre-existing counting tracer.
	ref := strassen.NewCountTracer()
	refCfg := strassen.DefaultConfig(kern)
	refCfg.Tracer = ref
	run(refCfg, order, order, order, 42)

	// Observed run: identical configuration, collector attached.
	col := NewCollector()
	cfg := col.Attach(strassen.DefaultConfig(kern))
	wall := run(cfg, order, order, order, 42)

	snap := col.Snapshot()
	if snap.Spans.Open != 0 {
		t.Fatalf("%d spans left open after the call returned", snap.Spans.Open)
	}
	if snap.Spans.Dropped != 0 {
		t.Fatalf("%d spans dropped on a small run", snap.Spans.Dropped)
	}
	if snap.Spans.Total != ref.Total() {
		t.Fatalf("span count %d != CountTracer total %d", snap.Spans.Total, ref.Total())
	}
	for action, n := range snap.Spans.ByAction {
		if ref.Count(action) != n {
			t.Errorf("action %q: %d spans vs %d counted events", action, n, ref.Count(action))
		}
		if snap.Metrics.Counters[metricEventPrefix+action] != int64(n) {
			t.Errorf("action %q: event counter disagrees with span count", action)
		}
	}
	if snap.Spans.MaxDepth != int64(ref.MaxDepth()) {
		t.Errorf("max depth %d != CountTracer %d", snap.Spans.MaxDepth, ref.MaxDepth())
	}

	// The root span covers the whole recursion; everything outside it
	// (argument validation, view setup) is O(1) or O(n²) at worst, so the
	// root must account for the bulk of the call. The loose lower bound
	// keeps the assertion meaningful without being timing-flaky.
	rootNS := snap.Spans.RootWallNS
	if rootNS <= 0 {
		t.Fatal("no closed root span")
	}
	if rootNS > wall.Nanoseconds() {
		t.Errorf("root span %v exceeds the call wall time %v", time.Duration(rootNS), wall)
	}
	if rootNS < wall.Nanoseconds()/2 {
		t.Errorf("root span %v is under half the call wall time %v", time.Duration(rootNS), wall)
	}
	if snap.Spans.RootGFLOPS <= 0 {
		t.Error("root GFLOPS not derived")
	}

	// Workspace accounting flows through the bridged tracker.
	if snap.Memory.Peak <= 0 || snap.Memory.Allocs <= 0 {
		t.Errorf("memory bridge empty: %+v", snap.Memory)
	}

	// Chrome trace export: valid JSON, one complete event per span, with
	// microsecond timestamps inside the call window.
	var buf bytes.Buffer
	if err := col.Spans.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(events) != snap.Spans.Total {
		t.Fatalf("chrome trace has %d events, want %d", len(events), snap.Spans.Total)
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("unexpected event phase %v", ev["ph"])
		}
		dur, ok := ev["dur"].(float64)
		if !ok || dur < 0 {
			t.Fatalf("event without a duration: %v", ev)
		}
	}

	// Span-tree JSON exports and parses.
	buf.Reset()
	if err := col.Spans.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var tree struct {
		Spans []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tree); err != nil {
		t.Fatalf("span tree JSON invalid: %v", err)
	}
	if len(tree.Spans) != 1 {
		t.Fatalf("want a single root, got %d", len(tree.Spans))
	}
}

// TestParallelSpanTreeComplete runs the task-parallel schedule with both a
// recording tracer and the collector attached and checks — under -race in
// CI — that the resulting tree is complete and well-parented: no dropped
// spans, no orphans, every child nested inside its parent's interval.
func TestParallelSpanTreeComplete(t *testing.T) {
	ref := &strassen.LogTracer{}
	col := NewCollector()
	cfg := strassen.DefaultConfig(blas.KernelByName("blocked"))
	cfg.Criterion = strassen.Simple{Tau: 32}
	rt := sched.New(4, 1)
	defer rt.Close()
	cfg.Sched = rt
	cfg.SchedLevels = 2
	cfg.Tracer = ref
	col.Attach(cfg)            // tees: events to ref, spans to col
	run(cfg, 257, 255, 259, 7) // odd dims: peeling + fixups inside parallel products

	spans := col.Spans.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	if got, want := len(spans), len(ref.Events); got != want {
		t.Fatalf("spans %d != tee'd events %d", got, want)
	}
	if n := col.Spans.Open(); n != 0 {
		t.Fatalf("%d spans still open", n)
	}
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots, parallels := 0, 0
	for _, s := range spans {
		if s.DurNS < 0 {
			t.Fatalf("span %d never ended", s.ID)
		}
		if s.Action == "parallel" {
			parallels++
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d is orphaned (parent %d missing)", s.ID, s.Parent)
		}
		if p.StartNS > s.StartNS {
			t.Errorf("span %d starts before its parent %d", s.ID, p.ID)
		}
		if p.StartNS+p.DurNS < s.StartNS+s.DurNS {
			t.Errorf("span %d ends after its parent %d", s.ID, p.ID)
		}
		// Peel/pad wrappers share their depth with the schedule node and
		// fixups they wrap; recursion otherwise only descends.
		if p.Depth > s.Depth {
			t.Errorf("span %d at depth %d under parent at depth %d", s.ID, s.Depth, p.Depth)
		}
	}
	if roots != 1 {
		t.Errorf("want exactly one root, got %d", roots)
	}
	if parallels == 0 {
		t.Error("parallel schedule produced no parallel spans")
	}
	// Concurrent siblings must land on distinct display tracks.
	for _, s := range spans {
		if s.Action != "parallel" {
			continue
		}
		tracks := make(map[int]int64)
		for _, ch := range spans {
			if ch.Parent != s.ID {
				continue
			}
			if other, clash := tracks[ch.Track]; clash {
				t.Fatalf("children %d and %d of parallel span %d share track %d",
					other, ch.ID, s.ID, ch.Track)
			}
			tracks[ch.Track] = ch.ID
		}
	}
}

func TestSpanRecorderLimitDropsSubtrees(t *testing.T) {
	col := NewCollector()
	col.Spans.Limit = 2
	cfg := col.Attach(&strassen.Config{
		Kernel:    blas.NaiveKernel{},
		Criterion: strassen.Always{},
		MaxDepth:  2,
	})
	run(cfg, 64, 64, 64, 3)
	if got := col.Spans.Len(); got != 2 {
		t.Fatalf("recorded %d spans, want limit 2", got)
	}
	if col.Spans.Dropped() == 0 {
		t.Fatal("expected dropped spans to be counted")
	}
	if col.Spans.Open() != 0 {
		t.Fatal("limited recorder left spans open")
	}
	// Event counters stay exact even when spans are shed.
	snap := col.Snapshot()
	if snap.Metrics.Counters[metricEventPrefix+"base"] != 49 {
		t.Errorf("base events = %d, want 49", snap.Metrics.Counters[metricEventPrefix+"base"])
	}
}

func TestCollectorKernelBridge(t *testing.T) {
	pk := &blas.ParallelKernel{Workers: 4}
	col := NewCollector()
	cfg := col.Attach(strassen.DefaultConfig(pk))
	// One recursion level: the base problems keep 128 columns, enough for
	// the parallel kernel to split into worker goroutines.
	cfg.MaxDepth = 1
	run(cfg, 256, 256, 256, 9)
	snap := col.Snapshot()
	if len(snap.Kernels) != 1 {
		t.Fatalf("want 1 observed kernel, got %d", len(snap.Kernels))
	}
	ks := snap.Kernels[0]
	if ks.Dispatches == 0 {
		t.Error("no kernel dispatches recorded")
	}
	if ks.Goroutines == 0 {
		t.Error("no worker goroutines recorded (200 cols should split)")
	}
	if snap.Metrics.Gauges["kernel.parallel.goroutines"] != ks.Goroutines {
		t.Error("goroutine gauge not folded into metrics")
	}
}

func TestCollectorSchedBridge(t *testing.T) {
	rt := sched.New(2, 5)
	defer rt.Close()
	col := NewCollector()
	cfg := col.Attach(strassen.DefaultConfig(nil))
	cfg.Sched = rt
	cfg.Criterion = strassen.Simple{Tau: 16}
	col.ObserveSched(cfg.Sched)
	col.ObserveSched(cfg.Sched) // dedupe: still one entry
	run(cfg, 64, 64, 64, 13)
	snap := col.Snapshot()
	if len(snap.Sched) != 1 {
		t.Fatalf("want 1 observed runtime, got %d", len(snap.Sched))
	}
	ss := snap.Sched[0]
	if ss.Workers != 2 {
		t.Errorf("workers = %d, want 2", ss.Workers)
	}
	if ss.TasksRun == 0 {
		t.Error("no scheduler tasks recorded for a DAG-routed multiply")
	}
	if ss.MaxRunning < 1 || ss.MaxRunning > int64(ss.Workers) {
		t.Errorf("max_running = %d outside [1, %d]", ss.MaxRunning, ss.Workers)
	}
	if snap.Metrics.Gauges["sched.tasks_run"] != ss.TasksRun {
		t.Error("tasks_run gauge not folded into metrics")
	}
	if snap.Metrics.Gauges["sched.max_running"] != ss.MaxRunning {
		t.Error("max_running gauge not folded into metrics")
	}
}

func TestTrackerStatsConsistency(t *testing.T) {
	tr := memtrack.New()
	col := NewCollector()
	cfg := strassen.DefaultConfig(nil)
	cfg.Tracker = tr
	col.Attach(cfg)
	run(cfg, 128, 128, 128, 5)
	if got, want := col.Snapshot().Memory, tr.Stats(); got != want {
		t.Fatalf("bridged stats %+v != tracker stats %+v", got, want)
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	col := NewCollector()
	cfg := col.Attach(strassen.DefaultConfig(nil))
	run(cfg, 128, 128, 128, 11)

	srv, addr, err := StartDebugServer("127.0.0.1:0", col)
	if err != nil {
		t.Fatalf("StartDebugServer: %v", err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not a Snapshot: %v", err)
	}
	if snap.Spans.Total == 0 {
		t.Error("/metrics shows no spans")
	}
	var events []map[string]any
	if err := json.Unmarshal(get("/trace"), &events); err != nil {
		t.Fatalf("/trace is not chrome trace JSON: %v", err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars invalid: %v", err)
	}
	if _, ok := vars["dgefmm"]; !ok {
		t.Error("collector not published on expvar")
	}
	if body := get("/debug/pprof/"); !bytes.Contains(body, []byte("goroutine")) {
		t.Error("pprof index missing profiles")
	}
}

func TestAttachComposesWithExistingTracer(t *testing.T) {
	ref := strassen.NewCountTracer()
	col := NewCollector()
	cfg := strassen.DefaultConfig(nil)
	cfg.Tracer = ref
	col.Attach(cfg)
	run(cfg, 100, 100, 100, 13)
	if ref.Total() == 0 {
		t.Fatal("pre-existing tracer starved after Attach")
	}
	if col.Spans.Len() != ref.Total() {
		t.Fatalf("collector spans %d != tee'd events %d", col.Spans.Len(), ref.Total())
	}
}

func TestSnapshotPackedKernelStats(t *testing.T) {
	col := NewCollector()
	pk := &kernel.Packed{}
	cfg := strassen.DefaultConfig(pk)
	col.Attach(cfg)
	run(cfg, 128, 128, 128, 17)

	s := col.Snapshot()
	if len(s.Packed) != 1 {
		t.Fatalf("got %d packed kernel entries, want 1", len(s.Packed))
	}
	ps := s.Packed[0]
	// The name follows the dispatched micro-kernel ("simd" on SIMD hosts,
	// "packed" on scalar fallback); either way it must match the kernel's.
	if ps.Name != pk.Name() {
		t.Errorf("packed entry name = %q, kernel reports %q", ps.Name, pk.Name())
	}
	if ps.ISA != pk.ISA() || ps.ISA == "" {
		t.Errorf("packed entry ISA = %q, kernel reports %q", ps.ISA, pk.ISA())
	}
	if ps.SIMDTiles+ps.ScalarTiles <= 0 {
		t.Errorf("tile dispatch counters not collected: %+v", ps)
	}
	if ps.ISA == "scalar" && ps.SIMDTiles != 0 {
		t.Errorf("scalar dispatch reported %d SIMD tiles", ps.SIMDTiles)
	}
	if s.Metrics.Gauges["kernel.packed.simd_tiles"] != ps.SIMDTiles {
		t.Error("simd_tiles gauge not folded into metrics")
	}
	if ps.MulAdds <= 0 || ps.PackAWords <= 0 || ps.PackBWords <= 0 {
		t.Errorf("packed counters not collected: %+v", ps)
	}
	if ps.Arena.Peak <= 0 || ps.Arena.Live != 0 {
		t.Errorf("packed arena accounting off: %+v", ps.Arena)
	}
	// The packing arena must NOT leak into the Strassen-workspace figure:
	// Memory stays exactly the config tracker's stats (Table 1 comparable).
	if got, want := s.Memory, cfg.Tracker.Stats(); got != want {
		t.Errorf("Memory %+v != strassen tracker stats %+v (packing arena folded in?)", got, want)
	}
	if s.Metrics.Gauges["kernel.packed.mul_adds"] != ps.MulAdds {
		t.Error("packed mul_adds gauge not folded into metrics")
	}
	if s.Metrics.Gauges["kernel.packed.arena_peak_words"] != ps.Arena.Peak {
		t.Error("packed arena peak gauge not folded into metrics")
	}
}
