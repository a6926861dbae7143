package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/memtrack"
	"repro/internal/phase"
	"repro/internal/sched"
	"repro/internal/strassen"
)

// Metric names the Collector maintains. Event counters are
// "dgefmm.events.<action>" (one per trace action: base, strassen1,
// strassen2, original, parallel, peel, peel-first, pad-dynamic, pad-static,
// fixup-ger, fixup-col, fixup-row) and span latency histograms are
// "dgefmm.span.<action>.ns".
const (
	metricEventPrefix = "dgefmm.events."
	metricSpanPrefix  = "dgefmm.span."
	metricMaxDepth    = "dgefmm.max_depth"
)

// Collector bundles the observability layer's instruments behind one handle
// that plugs into a strassen.Config as its Tracer. It implements
// strassen.SpanTracer: every recursion event increments a named counter,
// and every node's span is recorded (timed, parented) and its latency fed
// to a per-action histogram. Bridges pull workspace accounting from
// memtrack.Tracker, packing-work counters plus arena accounting from
// packed-style kernels (internal/kernel), and scheduler counters from
// work-stealing runtimes (internal/sched) into every Snapshot.
//
// A Collector is safe for concurrent use; attach one to many configs to
// aggregate, or one per call to isolate.
type Collector struct {
	// Registry holds the named metrics.
	Registry *Registry
	// Spans records the timed recursion tree.
	Spans *SpanRecorder

	mu       sync.Mutex
	trackers []*memtrack.Tracker
	packed   []packedKernel
	scheds   []*sched.Runtime
	phases   *phase.Profiler
}

// packedKernel is the structural interface internal/kernel's Packed
// satisfies: cumulative work counters plus a private packing arena. Its
// one loop nest runs products — a plain multiply is one, a fused Strassen
// level one per record — so the product count covers every call the
// kernel served, fused or not. Kept structural so the collector observes
// any future kernel with the same shape without an import.
type packedKernel interface {
	blas.Kernel
	Counters() (products, packAWords, packBWords int64)
	Arena() *memtrack.Tracker
}

// NewCollector returns a Collector with a fresh registry and span recorder.
func NewCollector() *Collector {
	return &Collector{Registry: NewRegistry(), Spans: NewSpanRecorder()}
}

// Event implements strassen.Tracer.
func (c *Collector) Event(e strassen.TraceEvent) {
	c.Registry.Counter(metricEventPrefix + e.Action).Add(1)
	c.Registry.Gauge(metricMaxDepth).SetMax(int64(e.Deepest()))
}

// BeginSpan implements strassen.SpanTracer.
func (c *Collector) BeginSpan(parent int64, e strassen.TraceEvent) int64 {
	return c.Spans.BeginSpan(parent, e)
}

// EndSpan implements strassen.SpanTracer.
func (c *Collector) EndSpan(id int64) {
	if s, ok := c.Spans.end(id); ok {
		c.Registry.Histogram(metricSpanPrefix + s.Action + ".ns").Observe(time.Duration(s.DurNS))
	}
}

// ObserveTracker registers a workspace tracker whose stats fold into every
// Snapshot.
func (c *Collector) ObserveTracker(t *memtrack.Tracker) {
	if t == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, have := range c.trackers {
		if have == t {
			return
		}
	}
	c.trackers = append(c.trackers, t)
}

// ObserveSched registers a work-stealing runtime whose scheduler counters
// (tasks run, steals, idle time, concurrency high-water mark) fold into
// every Snapshot. Observing the same runtime twice is a no-op.
func (c *Collector) ObserveSched(rt *sched.Runtime) {
	if rt == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, have := range c.scheds {
		if have == rt {
			return
		}
	}
	c.scheds = append(c.scheds, rt)
}

// ObserveKernel registers a kernel for Snapshot reporting. Packed-style
// kernels carry observable state: work counters and a packing arena
// (reported under Snapshot.Packed, separate from Snapshot.Memory so the
// workspace figure stays comparable to the paper's Table 1 bounds).
// Anything else is ignored.
func (c *Collector) ObserveKernel(k blas.Kernel) {
	pkd, ok := k.(packedKernel)
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, have := range c.packed {
		if have == pkd {
			return
		}
	}
	c.packed = append(c.packed, pkd)
}

// Attach wires the collector into a DGEFMM configuration: installs itself
// as the Tracer (composing with any tracer already present), ensures a
// workspace tracker exists, and registers the tracker and kernel for
// snapshots. A nil cfg starts from strassen.DefaultConfig. Returns cfg for
// chaining.
func (c *Collector) Attach(cfg *strassen.Config) *strassen.Config {
	if cfg == nil {
		cfg = strassen.DefaultConfig(nil)
	}
	switch prev := cfg.Tracer.(type) {
	case nil:
		cfg.Tracer = c
	case *Collector:
		if prev != c {
			cfg.Tracer = teeTracer{spans: c, also: prev}
		}
	default:
		cfg.Tracer = teeTracer{spans: c, also: prev}
	}
	if cfg.Tracker == nil {
		cfg.Tracker = memtrack.New()
	}
	c.ObserveTracker(cfg.Tracker)
	c.ObserveKernel(cfg.Kernel)
	c.ObserveSched(cfg.Sched)
	return cfg
}

// Phases returns the collector's phase profiler, creating it on first
// use. The profiler only accumulates while installed as the process-wide
// active profiler — use EnablePhases for the common scoped pattern.
func (c *Collector) Phases() *phase.Profiler {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phases == nil {
		c.phases = &phase.Profiler{}
	}
	return c.phases
}

// EnablePhases installs the collector's profiler as the process-wide phase
// profiler (package internal/phase) so kernel packing, Strassen add/sub
// and quadrant traffic, peeling fixups, batch queue wait and arena draws
// are attributed into this collector's snapshots. The returned function
// restores the previously active profiler; defer it around the measured
// region. Under -tags phaseoff this is a no-op.
func (c *Collector) EnablePhases() (restore func()) {
	prev := phase.SetActive(c.Phases())
	return func() { phase.SetActive(prev) }
}

// teeTracer fans the event stream out to a pre-existing tracer while the
// collector keeps span duty (spans need a single ID authority).
type teeTracer struct {
	spans *Collector
	also  strassen.Tracer
}

func (t teeTracer) Event(e strassen.TraceEvent) {
	t.spans.Event(e)
	t.also.Event(e)
}

func (t teeTracer) BeginSpan(parent int64, e strassen.TraceEvent) int64 {
	return t.spans.BeginSpan(parent, e)
}

func (t teeTracer) EndSpan(id int64) { t.spans.EndSpan(id) }

// isaKernel is the optional structural interface through which a kernel
// reports the instruction set its inner loop dispatches to ("avx2+fma",
// "neon", "scalar"); internal/kernel's Packed implements it.
type isaKernel interface{ ISA() string }

// tileCountersKernel is the optional structural interface for kernels that
// count register-tile invocations by the tile that ran them (SIMD vs
// scalar). Ragged fringe tiles run the dispatched tile too, so on a SIMD
// host any scalar count from an auto-dispatched kernel flags a mis-dispatch.
type tileCountersKernel interface {
	TileCounters() (simd, scalar int64)
}

// PackedStats is one observed packed kernel's work and arena accounting.
// Arena is the kernel's private packing-buffer arena, reported apart from
// Snapshot.Memory: the Strassen temporaries' accounting stays directly
// comparable to the paper's Table 1 while the packing workspace is bounded
// by strassen.Plan.KernelWords instead. ISA and the tile counters record
// which micro-kernel actually ran, so a report from a fallback host is
// distinguishable from a SIMD host's. MulAdds counts the products the
// kernel ran (packedKernel).
type PackedStats struct {
	Name        string         `json:"name"`
	ISA         string         `json:"isa,omitempty"`
	MulAdds     int64          `json:"mul_adds"`
	PackAWords  int64          `json:"pack_a_words"`
	PackBWords  int64          `json:"pack_b_words"`
	SIMDTiles   int64          `json:"simd_tiles,omitempty"`
	ScalarTiles int64          `json:"scalar_tiles,omitempty"`
	Arena       memtrack.Stats `json:"arena"`
}

// SpanStats summarizes the recorded span forest.
type SpanStats struct {
	Total    int            `json:"total"`
	Open     int            `json:"open"`
	Dropped  int64          `json:"dropped"`
	MaxDepth int64          `json:"max_depth"`
	ByAction map[string]int `json:"by_action,omitempty"`
	// RootWallNS and RootGFLOPS describe the first root span (the usual
	// single-call case); zero when no closed root exists.
	RootWallNS int64   `json:"root_wall_ns"`
	RootGFLOPS float64 `json:"root_gflops"`
}

// Snapshot is the immutable stats struct the public API exposes: metrics,
// aggregated workspace accounting, packed-kernel and scheduler counters,
// phases and the span summary, all taken at one instant.
type Snapshot struct {
	TakenAt time.Time       `json:"taken_at"`
	Metrics MetricsSnapshot `json:"metrics"`
	Memory  memtrack.Stats  `json:"memory"`
	Packed  []PackedStats   `json:"packed,omitempty"`
	Sched   []sched.Stats   `json:"sched,omitempty"`
	Phases  []phase.Stat    `json:"phases,omitempty"`
	Spans   SpanStats       `json:"spans"`
}

// Snapshot captures the collector's complete current state. Memory stats
// are summed across observed trackers (peaks sum, matching the fact that
// the trackers' arenas coexist).
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	trackers := append([]*memtrack.Tracker(nil), c.trackers...)
	packed := append([]packedKernel(nil), c.packed...)
	scheds := append([]*sched.Runtime(nil), c.scheds...)
	prof := c.phases
	c.mu.Unlock()

	s := Snapshot{TakenAt: time.Now()}
	for _, t := range trackers {
		ts := t.Stats()
		s.Memory.Live += ts.Live
		s.Memory.Peak += ts.Peak
		s.Memory.Allocs += ts.Allocs
		s.Memory.Reused += ts.Reused
	}
	for _, k := range packed {
		ma, pa, pb := k.Counters()
		ps := PackedStats{
			Name: k.Name(), MulAdds: ma, PackAWords: pa, PackBWords: pb,
			Arena: k.Arena().Stats(),
		}
		if ik, ok := k.(isaKernel); ok {
			ps.ISA = ik.ISA()
		}
		if tk, ok := k.(tileCountersKernel); ok {
			ps.SIMDTiles, ps.ScalarTiles = tk.TileCounters()
		}
		s.Packed = append(s.Packed, ps)
	}
	for _, rt := range scheds {
		s.Sched = append(s.Sched, rt.Stats())
	}

	spans := c.Spans.Spans()
	s.Spans.Total = len(spans)
	s.Spans.Open = c.Spans.Open()
	s.Spans.Dropped = c.Spans.Dropped()
	s.Spans.ByAction = make(map[string]int)
	for _, sp := range spans {
		s.Spans.ByAction[sp.Action]++
		if sp.Parent == 0 && s.Spans.RootWallNS == 0 && sp.DurNS > 0 {
			s.Spans.RootWallNS = sp.DurNS
			s.Spans.RootGFLOPS = sp.GFLOPS()
		}
	}

	// Fold the bridged figures into gauges so the expvar view carries them
	// too, then snapshot the registry last so it includes the update.
	c.Registry.Gauge("mem.live_words").Set(s.Memory.Live)
	c.Registry.Gauge("mem.peak_words").Set(s.Memory.Peak)
	c.Registry.Gauge("mem.allocs").Set(s.Memory.Allocs)
	c.Registry.Gauge("mem.reused").Set(s.Memory.Reused)
	if len(s.Packed) > 0 {
		var ma, pw, arenaPeak, simdTiles, scalarTiles int64
		for _, ps := range s.Packed {
			ma += ps.MulAdds
			pw += ps.PackAWords + ps.PackBWords
			arenaPeak += ps.Arena.Peak
			simdTiles += ps.SIMDTiles
			scalarTiles += ps.ScalarTiles
		}
		c.Registry.Gauge("kernel.packed.mul_adds").Set(ma)
		c.Registry.Gauge("kernel.packed.pack_words").Set(pw)
		c.Registry.Gauge("kernel.packed.arena_peak_words").Set(arenaPeak)
		c.Registry.Gauge("kernel.packed.simd_tiles").Set(simdTiles)
		c.Registry.Gauge("kernel.packed.scalar_tiles").Set(scalarTiles)
	}
	if len(s.Sched) > 0 {
		// sched.* gauge family: counters sum across observed runtimes;
		// max_running takes the max (it is a per-runtime invariant bound by
		// that runtime's worker count, not an additive figure).
		var workers, tasks, steals, idle, maxRun int64
		for _, ss := range s.Sched {
			workers += int64(ss.Workers)
			tasks += ss.TasksRun
			steals += ss.Steals
			idle += ss.IdleNS
			if ss.MaxRunning > maxRun {
				maxRun = ss.MaxRunning
			}
		}
		c.Registry.Gauge("sched.workers").Set(workers)
		c.Registry.Gauge("sched.tasks_run").Set(tasks)
		c.Registry.Gauge("sched.steals").Set(steals)
		c.Registry.Gauge("sched.idle_ns").Set(idle)
		c.Registry.Gauge("sched.max_running").Set(maxRun)
	}
	if prof != nil {
		s.Phases = prof.Snapshot()
		for _, ps := range s.Phases {
			if ps.Count == 0 {
				continue
			}
			// phase.* gauge family: raw totals plus the derived rates
			// cmd/benchdiff and the OpenMetrics exposition consume.
			c.Registry.Gauge("phase." + ps.Name + ".count").Set(ps.Count)
			c.Registry.Gauge("phase." + ps.Name + ".ns").Set(ps.NS)
			c.Registry.Gauge("phase." + ps.Name + ".flops").Set(ps.Flops)
			c.Registry.Gauge("phase." + ps.Name + ".bytes").Set(ps.Bytes)
			c.Registry.FloatGauge("phase." + ps.Name + ".gflops").Set(ps.GFLOPS())
			c.Registry.FloatGauge("phase." + ps.Name + ".intensity").Set(ps.Intensity())
		}
	}
	s.Metrics = c.Registry.Snapshot()
	s.Spans.MaxDepth = s.Metrics.Gauges[metricMaxDepth]
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
