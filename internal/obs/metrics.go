// Package obs is the observability layer for DGEFMM: a low-overhead
// metrics registry (atomic counters, gauges and log-scale latency
// histograms), a timed span recorder that turns the strassen package's
// trace-event stream into a recursion tree with per-node wall time and
// derived GFLOPS, and a Collector that bundles both with bridges into the
// workspace accountant (internal/memtrack), the packed kernel
// (internal/kernel) and the work-stealing runtime (internal/sched).
//
// The paper's evaluation is entirely measurement — MFLOPS against DGEMM,
// temporary-memory high-water marks, where the cutoff criterion stops the
// recursion — and this package is what makes those measurements first-class
// and machine-readable: span trees export as JSON and as Chrome trace-event
// files loadable in Perfetto, metric snapshots export as JSON and over
// expvar, and the debug HTTP server makes long calibration runs profilable
// live through net/http/pprof.
//
// The design constraint throughout is that absence costs nothing: with no
// collector attached, DGEFMM's tracing fast path is a nil check, and all
// hot-path instruments here are single atomic operations.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable integer instrument.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomically settable float64 instrument (GFLOPS, ratios,
// seconds).
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of log2 histogram buckets: bucket i counts
// observations with nanosecond durations in [2^(i-1), 2^i), which spans
// sub-nanosecond to ~2¹⁄₂ hours in 63 buckets.
const histBuckets = 64

// Histogram is a log2-scale latency histogram. Observations cost one atomic
// add each; there is no locking anywhere on the observation path.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	h.buckets[bits.Len64(uint64(ns))&(histBuckets-1)].Add(1)
}

// HistogramBucket is one populated histogram bucket: observations with
// durations in [Lo, Hi) nanoseconds.
type HistogramBucket struct {
	LoNanos int64 `json:"lo_ns"`
	HiNanos int64 `json:"hi_ns"`
	Count   int64 `json:"count"`
}

// HistogramSnapshot is an immutable view of a Histogram.
type HistogramSnapshot struct {
	Count     int64             `json:"count"`
	SumNanos  int64             `json:"sum_ns"`
	MeanNanos float64           `json:"mean_ns"`
	Buckets   []HistogramBucket `json:"buckets,omitempty"`
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) in
// nanoseconds, at log2 bucket resolution.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen > target {
			return b.HiNanos
		}
	}
	return s.Buckets[len(s.Buckets)-1].HiNanos
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumNanos: h.sumNS.Load()}
	if s.Count > 0 {
		s.MeanNanos = float64(s.SumNanos) / float64(s.Count)
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = int64(1) << (i - 1)
		}
		// Bucket 63 is the overflow bucket [2^62, MaxInt64]: 1<<63 would
		// wrap to MinInt64 and report a negative upper bound (and poison
		// Quantile), so cap it at the largest representable duration.
		hi := int64(math.MaxInt64)
		if i < histBuckets-1 {
			hi = int64(1) << i
		}
		s.Buckets = append(s.Buckets, HistogramBucket{LoNanos: lo, HiNanos: hi, Count: n})
	}
	return s
}

// Registry is a named-metric registry. Lookup is read-locked and metric
// handles are stable, so hot paths should look a metric up once and hold
// the pointer; updates through the handle are lock-free.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	floatGauges map[string]*FloatGauge
	histograms  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		floatGauges: make(map[string]*FloatGauge),
		histograms:  make(map[string]*Histogram),
	}
}

func registryGet[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := m[name]; ok {
		return v
	}
	v = new(T)
	m[name] = v
	return v
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter { return registryGet(r, r.counters, name) }

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge { return registryGet(r, r.gauges, name) }

// FloatGauge returns (creating if needed) the named float gauge.
func (r *Registry) FloatGauge(name string) *FloatGauge { return registryGet(r, r.floatGauges, name) }

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram { return registryGet(r, r.histograms, name) }

// MetricsSnapshot is an immutable copy of every metric in a Registry.
type MetricsSnapshot struct {
	Counters    map[string]int64             `json:"counters,omitempty"`
	Gauges      map[string]int64             `json:"gauges,omitempty"`
	FloatGauges map[string]float64           `json:"float_gauges,omitempty"`
	Histograms  map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every metric.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := MetricsSnapshot{
		Counters:    make(map[string]int64, len(r.counters)),
		Gauges:      make(map[string]int64, len(r.gauges)),
		FloatGauges: make(map[string]float64, len(r.floatGauges)),
		Histograms:  make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, g := range r.floatGauges {
		s.FloatGauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Names returns every registered metric name, sorted, for reporting.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.floatGauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.floatGauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the snapshot as indented JSON.
func (s MetricsSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
