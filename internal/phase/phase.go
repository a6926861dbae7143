// Package phase is the performance-attribution substrate: a fixed set of
// named execution phases (panel packing, the register-tile loop, the
// Winograd add/sub combinations, peeling fixups, batch queue wait, arena
// draws) and a Profiler that accumulates per-phase wall time, FLOPs and
// bytes moved with one atomic add per field.
//
// The paper argues its case with breakdowns — MFLOPS per configuration,
// workspace per schedule — and Huang et al.'s BLIS Strassen (arXiv:
// 1605.01078) attributes cost to packing vs. micro-kernel vs. add/sub
// memory traffic. This package is the measurement layer that turns "where
// do Strassen's savings go at runtime" into numbers: internal/kernel,
// internal/strassen, internal/batch and internal/memtrack bracket their
// phases through it, internal/obs folds the totals into snapshots as the
// phase.* metric family, and cmd/obsreport derives per-phase GFLOPS,
// arithmetic intensity and roofline positions from them.
//
// The design constraint is the same as internal/obs's: absence costs
// nothing. With no profiler installed, a bracket is one atomic pointer
// load and a nil check (the Sample returned by Begin carries a nil
// profiler, so End is a predictable branch); hot loops hoist the Active()
// load out of their inner loops. Building with -tags phaseoff removes even
// that: Active is then a constant nil and the compiler eliminates every
// bracket (see off.go), which is how the "measurably unchanged" claim for
// the uninstrumented path is testable rather than asserted.
//
// This package sits below every instrumented package and imports only the
// standard library; it must never import the packages it measures.
package phase

import (
	"sync/atomic"
	"time"
)

// ID identifies one execution phase. The set is closed and small so
// counters live in a fixed array indexed without hashing.
type ID uint8

const (
	// KernelPackA is the packed kernel's Ã-panel packing (pure data
	// movement: op(A) blocks rearranged into mr-row micro-panels).
	KernelPackA ID = iota
	// KernelPackB is the B̃-panel packing (nr-column micro-panels).
	KernelPackB
	// KernelMicro is the register-tile loop over full MR×NR tiles — the
	// only phase whose FLOPs run at the machine's vector peak.
	KernelMicro
	// KernelFringe is the ragged-boundary tile work: the same register
	// tile run over zero-padded panels, writing out only the valid
	// elements. Its share of a sweep's time is its share of the tiles.
	KernelFringe
	// StrassenAddSub is the Winograd stage (1)/(2) S/T sum formation on
	// A- and B-shaped operands.
	StrassenAddSub
	// StrassenQuadrant is the stage (4) combination traffic into C
	// quadrants (the write-out adds, U-chains and quadrant copies).
	StrassenQuadrant
	// StrassenPeel is the dynamic-peeling fixup work: the DGER rank-one
	// border repair and the two DGEMV border products.
	StrassenPeel
	// BatchQueueWait is the time a batched call spends queued before a
	// worker picks it up (count = dequeues, bytes/flops zero).
	BatchQueueWait
	// ArenaDraw is workspace-arena accounting time: memtrack Alloc calls,
	// with bytes = words drawn (fresh or recycled) times 8.
	ArenaDraw
	// KernelFusedPack is the operand-fused packing of the fused Winograd
	// path: Ã/B̃ panels formed as γ₀·X + γ₁·Y (+ …) on the fly from the
	// Strassen quadrants, replacing a separate add/sub pass plus a plain
	// pack. FLOPs are the fused adds; bytes count every term read plus the
	// packed write.
	KernelFusedPack
	// KernelFusedWriteout is the multi-destination micro-kernel write-out:
	// the extra ±1-weighted accumulations of one product panel into its
	// second and later C quadrants (the first destination's traffic stays
	// in KernelMicro/KernelFringe, keeping those comparable to the unfused
	// kernel).
	KernelFusedWriteout
	// SchedTaskRun is time a scheduler worker spends executing task bodies
	// (count = tasks run; flops/bytes belong to the phases the bodies
	// bracket themselves, so they stay zero here to avoid double counting).
	SchedTaskRun
	// SchedSteal is time spent in steal attempts — scanning victim deques
	// and the injector — whether or not a task was found (count = successful
	// steals).
	SchedSteal
	// SchedIdle is time a worker spends parked with no runnable task; the
	// work-conservation property says this stays near zero while tasks
	// outnumber workers.
	SchedIdle

	// NumPhases is the number of defined phases.
	NumPhases int = iota
)

// names are the stable metric-family segments: "phase.<name>.ns" etc.
var names = [NumPhases]string{
	"kernel.pack_a",
	"kernel.pack_b",
	"kernel.micro",
	"kernel.fringe",
	"strassen.addsub",
	"strassen.quadrant",
	"strassen.peel",
	"batch.queue_wait",
	"arena.draw",
	"kernel.fused_pack",
	"kernel.fused_writeout",
	"sched.task_run",
	"sched.steal",
	"sched.idle",
}

// String returns the phase's stable report name.
func (id ID) String() string {
	if int(id) < NumPhases {
		return names[id]
	}
	return "unknown"
}

// Names returns every phase name in ID order.
func Names() []string {
	out := make([]string, NumPhases)
	copy(out, names[:])
	return out
}

// counters is one phase's accumulator quad. Padding between phases is not
// needed: phases are updated from coarse brackets, not per-element loops,
// so false sharing is noise here.
type counters struct {
	count atomic.Int64
	ns    atomic.Int64
	flops atomic.Int64
	bytes atomic.Int64
}

// Profiler accumulates per-phase totals. The zero value is ready to use;
// all methods are safe for concurrent use, and all methods are safe on a
// nil *Profiler (they become no-ops), which is the disabled fast path.
type Profiler struct {
	c [NumPhases]counters
}

// Add folds one completed region into a phase: its wall time, the scalar
// FLOPs it performed (opcount convention: one add or one multiply each
// count 1) and the bytes it moved.
func (p *Profiler) Add(id ID, ns, flops, bytes int64) {
	if p == nil {
		return
	}
	c := &p.c[id]
	c.count.Add(1)
	c.ns.Add(ns)
	c.flops.Add(flops)
	c.bytes.Add(bytes)
}

// Sample is an open bracket returned by Begin. It is a value (no
// allocation); call End exactly once when the region completes.
type Sample struct {
	p     *Profiler
	id    ID
	start int64 // Now at Begin
}

// Begin opens a timed bracket for the phase. On a nil Profiler it returns
// an inert Sample whose End is a nil check.
func (p *Profiler) Begin(id ID) Sample {
	if p == nil {
		return Sample{}
	}
	return Sample{p: p, id: id, start: Now()}
}

// End closes the bracket, attributing the elapsed wall time plus the
// caller-accounted FLOPs and bytes to the sample's phase.
func (s Sample) End(flops, bytes int64) {
	if s.p == nil {
		return
	}
	s.p.Add(s.id, Now()-s.start, flops, bytes)
}

// epoch is the origin of Now.
var epoch = time.Now()

// Now is the monotonic time in nanoseconds since the package was
// initialized. It reads the monotonic clock alone, where time.Now reads
// the wall clock too and costs half as much again: spans timed this way
// are differences of Now.
func Now() int64 {
	return int64(time.Since(epoch))
}

// Stat is one phase's accumulated totals.
type Stat struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	NS    int64  `json:"ns"`
	Flops int64  `json:"flops"`
	Bytes int64  `json:"bytes"`
}

// GFLOPS is the phase's compute rate (0 for untimed or flop-free phases).
func (s Stat) GFLOPS() float64 {
	if s.NS <= 0 {
		return 0
	}
	return float64(s.Flops) / float64(s.NS)
}

// GBps is the phase's memory traffic rate in GB/s.
func (s Stat) GBps() float64 {
	if s.NS <= 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.NS)
}

// Intensity is the phase's arithmetic intensity in FLOPs per byte moved
// (0 when the phase moved no bytes).
func (s Stat) Intensity() float64 {
	if s.Bytes <= 0 {
		return 0
	}
	return float64(s.Flops) / float64(s.Bytes)
}

// Snapshot copies every phase's totals in ID order (including zero-count
// phases, so consumers index by position). A nil Profiler reports zeros.
func (p *Profiler) Snapshot() []Stat {
	out := make([]Stat, NumPhases)
	for i := range out {
		out[i].Name = names[i]
		if p == nil {
			continue
		}
		c := &p.c[i]
		out[i].Count = c.count.Load()
		out[i].NS = c.ns.Load()
		out[i].Flops = c.flops.Load()
		out[i].Bytes = c.bytes.Load()
	}
	return out
}

// Reset zeroes every counter.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	for i := range p.c {
		c := &p.c[i]
		c.count.Store(0)
		c.ns.Store(0)
		c.flops.Store(0)
		c.bytes.Store(0)
	}
}

// Enabled reports whether phase accounting is present in this binary.
// It is false under -tags phaseoff; tests that assert on collected
// samples consult it to skip instead of failing against a no-op build.
const Enabled = !compiledOut

// active is the process-wide installed profiler (nil = disabled). A single
// global — rather than threading a handle through every Config — is what
// lets the leaf kernel and the arena, which have no per-call configuration
// path, participate; it mirrors kernel.SetDefaultBlocks's process-global
// calibration model. obs.Collector installs its profiler via EnablePhases.
var active atomic.Pointer[Profiler]

// SetActive installs the process-wide profiler (nil disables). It returns
// the previous profiler so scoped measurements can restore it.
func SetActive(p *Profiler) (prev *Profiler) {
	if compiledOut {
		return nil
	}
	return active.Swap(p)
}
