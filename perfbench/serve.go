package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/phase"
	"repro/internal/serve"
	"repro/internal/strassen"
)

// reqShape is one entry of the request mix: row-major C (m×n) ← op(A)·op(B)
// + β·C with op(A) m×k, op(B) k×n, drawn with relative frequency weight.
type reqShape struct {
	m, k, n int
	transB  bool
	beta    float64
	weight  int
}

// serveSpec is the serving workload.
type serveSpec struct {
	shapes []reqShape
	// rate is the open loop's mean arrival rate (requests per second).
	rate float64
	// window is the server's coalesce window.
	window time.Duration
	// variants is the number of operand sets drawn per shape.
	variants int
}

// serveMix keeps every shape below the cutoff, so the recursion never
// fires and the wire, the coalescer, the batch queue and small-shape
// packing dominate. The 192³ requests are the slow mode of the latency
// distribution; at 2 of 11, p90 falls inside that mode — at 1 of 10 it
// would fall on the mode's edge and jump from run to run. The rate is
// about 40% of what a 2-CPU host completes in the closed loop, so queues
// form in bursts without a growing backlog; at lower rates the CPUs idle
// between requests and every request also pays the host's CPU wake-up
// latency, which varies from run to run on a shared host.
var serveMix = serveSpec{
	shapes: []reqShape{
		{m: 64, k: 64, n: 64, weight: 4},
		{m: 96, k: 96, n: 96, weight: 3},
		{m: 128, k: 96, n: 64, weight: 2},
		{m: 192, k: 192, n: 192, transB: true, beta: 0.5, weight: 2},
	},
	rate:     700,
	window:   time.Millisecond,
	variants: 4,
}

// Shares of the run's time. The open loop gives the latencies; the
// capacity probe takes the rest and gives the served-vs-in-process rate
// ratio, the only timed end-to-end metric of this workload.
const (
	warmShare = 0.04
	openShare = 0.24
)

// highWater lifts the server's admission mark well above any backlog the
// open loop builds, so admission control is not what this workload measures.
const highWater = 1 << 14

func (s reqShape) flops() float64 { return bench.GemmFlops(s.m, s.k, s.n) }

// serveRequest is one generated request with its expected answer.
type serveRequest struct {
	req   serve.GEMMRequest
	want  []float64
	flops float64 // 2mnk
}

// serveInputs are every generated input of a serve_mix run.
type serveInputs struct {
	reqs [][]serveRequest // [shape][variant]
	// arrivals are the open loop's due times after its start, warm-up
	// included; seq is the request sequence every loop draws from.
	arrivals []time.Duration
	seq      []*serveRequest
	digest   string
}

func genServeInputs(spec serveSpec, dur time.Duration, seed int64) *serveInputs {
	g := newGen(seed)
	in := &serveInputs{}
	ref := strassen.DefaultConfig(nil)
	totalWeight := 0
	for _, s := range spec.shapes {
		totalWeight += s.weight
		var vs []serveRequest
		for v := 0; v < spec.variants; v++ {
			r := serveRequest{flops: s.flops(), req: serve.GEMMRequest{
				TransA: blas.NoTrans, TransB: blas.NoTrans,
				M: s.m, N: s.n, K: s.k, Alpha: 1, Beta: s.beta,
				A: g.matrix(s.m * s.k), B: g.matrix(s.k * s.n),
			}}
			if s.transB {
				r.req.TransB = blas.Trans
			}
			if s.beta != 0 {
				r.req.C = g.matrix(s.m * s.n)
			}
			r.want = referenceGEMM(ref, &r.req)
			vs = append(vs, r)
		}
		in.reqs = append(in.reqs, vs)
	}
	// Poisson arrivals over the warm-up and the open loop.
	horizon := time.Duration(float64(dur) * (warmShare + openShare))
	for t := time.Duration(0); ; {
		t += time.Duration(g.rng.ExpFloat64() / spec.rate * float64(time.Second))
		if t >= horizon {
			break
		}
		in.arrivals = append(in.arrivals, t)
	}
	g.hash(in.arrivals)
	// The open loop takes the first len(arrivals) entries; the capacity
	// probe continues from there and wraps around at the end.
	n := len(in.arrivals) + int(spec.rate*dur.Seconds())
	picks := make([]int32, 0, 2*n)
	for i := 0; i < n; i++ {
		w := g.rng.Intn(totalWeight)
		si := 0
		for ; w >= spec.shapes[si].weight; si++ {
			w -= spec.shapes[si].weight
		}
		v := g.rng.Intn(spec.variants)
		picks = append(picks, int32(si), int32(v))
		in.seq = append(in.seq, &in.reqs[si][v])
	}
	g.hash(picks)
	in.digest = g.digest()
	return in
}

// referenceGEMM computes a request's answer in process, with the mapping
// the server applies: a row-major frame is the column-major transpose, so
// Cᵀ = op(B)ᵀ·op(A)ᵀ + β·Cᵀ runs with the operands swapped.
func referenceGEMM(cfg *strassen.Config, r *serve.GEMMRequest) []float64 {
	c := make([]float64, r.M*r.N)
	copy(c, r.C)
	ta, tb, lda, ldb := colMajor(r)
	strassen.DGEFMM(cfg, ta, tb, r.N, r.M, r.K, r.Alpha, r.B, ldb, r.A, lda, r.Beta, c, r.N)
	return c
}

// colMajor returns the transposes and leading dimensions of the swapped
// column-major call for a row-major request.
func colMajor(r *serve.GEMMRequest) (ta, tb blas.Transpose, lda, ldb int) {
	lda, ldb = r.K, r.N
	if r.TransB.IsTrans() {
		ldb = r.K
	}
	return r.TransB, r.TransA, lda, ldb
}

// service is an in-process dgefmmd: a real listener speaking h2c, and one
// client (one connection) per CPU.
type service struct {
	srv     *serve.Server
	ts      *httptest.Server
	clients []*serve.Client
}

func startService(spec serveSpec) *service {
	s := &service{srv: serve.New(&serve.Options{CoalesceWindow: spec.window, HighWater: highWater})}
	s.ts = httptest.NewUnstartedServer(s.srv.Handler())
	serve.EnableH2C(s.ts.Config, nil)
	s.ts.Start()
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		tr := &http.Transport{MaxConnsPerHost: 1}
		serve.EnableH2C(nil, tr)
		s.clients = append(s.clients, &serve.Client{BaseURL: s.ts.URL, HTTPClient: &http.Client{Transport: tr}})
	}
	return s
}

func (s *service) close() {
	for _, c := range s.clients {
		c.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
	}
	s.ts.Close()
	s.srv.Close()
}

// outcome is one request's result.
type outcome struct {
	ms      float64 // latency
	flops   float64 // work done when ok
	ok      bool
	wrong   bool // answered, but not bit-identical to the reference
	refused bool // 429
}

// issue sends one request on connection ci and checks the answer.
func (s *service) issue(ci int, r *serveRequest) outcome {
	t0 := time.Now()
	res, err := s.clients[ci%len(s.clients)].GEMM(context.Background(), &r.req)
	o := outcome{ms: msSince(t0)}
	var he *serve.HTTPError
	switch {
	case errors.As(err, &he) && he.Throttled():
		o.refused = true
	case err != nil:
	case !bitEqual(res.C, r.want):
		o.wrong = true
	default:
		o.ok, o.flops = true, r.flops
	}
	return o
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// serveRun is one serve_mix run's state and tallies.
type serveRun struct {
	spec serveSpec
	in   *serveInputs
	svc  *service
	next atomic.Int64 // position in in.seq

	attempted, failed, wrong, refused int
}

func (w *serveRun) pick() *serveRequest {
	i := w.next.Add(1) - 1
	return w.in.seq[int(i)%len(w.in.seq)]
}

func (w *serveRun) tally(o outcome) {
	w.attempted++
	if !o.ok {
		w.failed++
	}
	if o.wrong {
		w.wrong++
	}
	if o.refused {
		w.refused++
	}
}

// openLoop sends requests at their due times regardless of completions and
// times each from when it was due, so a stall charges every request it
// delays. late is how far behind schedule each send went out. spans, when
// non-nil, records one root span per request.
func (w *serveRun) openLoop(arrivals []time.Duration, spans *obs.SpanRecorder) (outs []outcome, late []float64) {
	outs = make([]outcome, len(arrivals))
	late = make([]float64, len(arrivals))
	reqs := make([]*serveRequest, len(arrivals))
	for i := range reqs {
		reqs[i] = w.pick()
	}
	// Bounds the requests in flight to the closed loop's count; a send that
	// waits here shows as generator lateness. Without the bound a host stall
	// builds a backlog whose buffers, not the program, set the RSS peak.
	sem := make(chan struct{}, closedPerConn*len(w.svc.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range arrivals {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		late[i] = msSince(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			id := beginRequest(spans, reqs[i])
			o := w.svc.issue(i, reqs[i])
			endRequest(spans, id)
			o.ms = msSince(due)
			outs[i] = o
		}(i, due)
	}
	wg.Wait()
	return outs, late
}

// closedPerConn is the closed loop's requests outstanding per connection:
// enough that same-shape requests meet inside the coalesce window and the
// pool, not the window, bounds throughput (at 2 per connection nearly
// every request waits out the window alone).
const closedPerConn = 8

// closedLoop keeps closedPerConn requests per connection outstanding until
// the deadline and returns the outcomes and the elapsed wall time.
func (w *serveRun) closedLoop(d time.Duration, spans *obs.SpanRecorder) ([]outcome, time.Duration) {
	clients := closedPerConn * len(w.svc.clients)
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := w.pick()
				id := beginRequest(spans, r)
				o := w.svc.issue(c, r)
				endRequest(spans, id)
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, elapsed
}

// burst is the length of one arm of the capacity probe: long enough that
// the closed loop's start and drain are a small part of it, and short
// against the host's drift, which neighbouring bursts therefore share.
const burst = 250 * time.Millisecond

// capacity alternates closed-loop bursts against the server with bursts of
// the same request sequence computed in process by the DGEMM kernel, one
// caller per connection, so both arms use the same CPUs and feel the same
// contention. The order alternates. It returns each burst's rate in
// GFLOP/s; with spans non-nil every round adds a traced server burst
// (profiler installed, client spans recorded).
func (w *serveRun) capacity(d time.Duration, spans *obs.SpanRecorder) (local, served, traced []float64) {
	prof := &phase.Profiler{}
	size := 0 // the largest result
	for _, s := range w.spec.shapes {
		size = max(size, s.m*s.n)
	}
	callers := len(w.svc.clients)
	kernels := make([]blas.Kernel, callers)
	results := make([][]float64, callers)
	for i := range kernels {
		kernels[i] = blas.CloneKernel(kernel.Default())
		results[i] = make([]float64, size)
	}
	localArm := func() float64 {
		work := make([]float64, callers)
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(burst)
		for i := range kernels {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					r := w.pick()
					q := &r.req
					c := results[i][:q.M*q.N]
					copy(c, q.C)
					ta, tb, lda, ldb := colMajor(q)
					blas.DgemmKernel(kernels[i], ta, tb, q.N, q.M, q.K, q.Alpha, q.B, ldb, q.A, lda, q.Beta, c, q.N)
					work[i] += r.flops
				}
			}(i)
		}
		wg.Wait()
		return sum(work) / time.Since(start).Seconds() / 1e9
	}
	servedArm := func(spans *obs.SpanRecorder) float64 {
		outs, elapsed := w.closedLoop(burst, spans)
		work := 0.0
		for _, o := range outs {
			w.tally(o)
			work += o.flops
		}
		return work / elapsed.Seconds() / 1e9
	}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			local = append(local, localArm())
			served = append(served, servedArm(nil))
		} else {
			served = append(served, servedArm(nil))
			local = append(local, localArm())
		}
		if spans != nil {
			prev := phase.SetActive(prof)
			traced = append(traced, servedArm(spans))
			phase.SetActive(prev)
		}
	}
	return local, served, traced
}

func beginRequest(spans *obs.SpanRecorder, r *serveRequest) int64 {
	if spans == nil {
		return 0
	}
	return spans.BeginSpan(0, strassen.TraceEvent{Action: "request", M: r.req.M, K: r.req.K, N: r.req.N})
}

func endRequest(spans *obs.SpanRecorder, id int64) {
	if spans != nil {
		spans.EndSpan(id)
	}
}

func runServe(spec serveSpec, o opts) (*report, error) {
	in := genServeInputs(spec, o.dur, o.seed)
	var times []float64
	var svc *service
	for i := 0; i < setups; i++ {
		if svc != nil {
			svc.close()
			runtime.GC()
		}
		t0 := time.Now()
		svc = startService(spec)
		out := svc.issue(0, &in.reqs[0][0])
		times = append(times, time.Since(t0).Seconds())
		if !out.ok {
			svc.close()
			return nil, errors.New("serve_mix: the first request failed")
		}
	}
	defer svc.close()
	w := &serveRun{spec: spec, in: in, svc: svc}

	warm := time.Duration(float64(o.dur) * warmShare)
	split := 0
	for split < len(in.arrivals) && in.arrivals[split] < warm {
		split++
	}
	w.openLoop(in.arrivals[:split], nil) // warm plans, arenas and connections
	measured := make([]time.Duration, 0, len(in.arrivals)-split)
	for _, a := range in.arrivals[split:] {
		measured = append(measured, a-warm)
	}
	runtime.GC()

	// The traced run profiles the open loop as its layer window.
	var rec *obs.SpanRecorder
	prof := &phase.Profiler{}
	if o.traced {
		rec = obs.NewSpanRecorder()
		phase.SetActive(prof)
	}
	before := svc.srv.Collector().Snapshot()
	t0 := time.Now()
	openOuts, late := w.openLoop(measured, rec)
	window := time.Since(t0)
	if o.traced {
		phase.SetActive(nil)
	}
	after := svc.srv.Collector().Snapshot()
	local, served, traced := w.capacity(time.Duration(float64(o.dur)*(1-warmShare-openShare)), rec)

	var lat []float64
	openWork := 0.0
	for _, out := range openOuts {
		w.tally(out)
		openWork += out.flops
		if out.ok {
			lat = append(lat, out.ms)
		}
	}
	r := newReport(in.digest)
	if o.traced {
		l := layerInputs{st: prof.Snapshot(), before: before, after: after, window: window,
			lat: lat, late: late, flops: openWork}
		w.setLayers(r, l)
		setWall(r, medianOf(served), lat)
		// Rates, not times: untraced over traced is traced time over untraced.
		r.set("trace.overhead.ratio", pairedRatio(served, traced))
		r.spans, r.phases = rec, l.st
	} else {
		r.set("setup_s", medianOf(times))
		r.set("speedup_vs_dgemm", pairedRatio(served, local))
		end := svc.srv.Collector().Snapshot()
		words := end.Memory.Peak
		for _, p := range end.Packed {
			words += p.Arena.Peak
		}
		r.set("workspace_mb", float64(words)*8/1e6)
	}
	r.attempted, r.failed, r.wrong = w.attempted, w.failed, w.wrong
	return r, nil
}

// layerInputs is what the traced serve_mix window measured.
type layerInputs struct {
	st            []phase.Stat
	before, after obs.Snapshot
	window        time.Duration
	lat, late     []float64 // open-loop latency and generator lateness, ms
	flops         float64   // work completed in the window
}

func (w *serveRun) setLayers(r *report, l layerInputs) {
	workers := w.svc.srv.Pool().Stats().Workers
	setPhaseMetrics(r, l.st, float64(workers)*float64(l.window.Nanoseconds()), l.flops)

	var simd, scalar, reused, allocs int64
	for i, p := range l.after.Packed {
		simd += p.SIMDTiles - l.before.Packed[i].SIMDTiles
		scalar += p.ScalarTiles - l.before.Packed[i].ScalarTiles
		reused += p.Arena.Reused - l.before.Packed[i].Arena.Reused
		allocs += p.Arena.Allocs - l.before.Packed[i].Arena.Allocs
	}
	reused += l.after.Memory.Reused - l.before.Memory.Reused
	allocs += l.after.Memory.Allocs - l.before.Memory.Allocs
	r.set("kernel.simd_tile_ratio", ratio(float64(simd), float64(simd+scalar)))
	r.set("batch.arena_reuse_ratio", ratio(float64(reused), float64(reused+allocs)))

	ps := w.svc.srv.Pool().Stats()
	depth := 0
	for _, p := range w.svc.srv.Pool().Plans() {
		if p.Depth > depth {
			depth = p.Depth
		}
	}
	var peak int64
	for _, a := range ps.Arenas {
		if a.Peak > peak {
			peak = a.Peak
		}
	}
	r.set("strassen.depth", float64(depth))
	r.set("arena.peak_mwords", float64(peak)/1e6)
	r.set("arena.plan_ratio", planRatio(peak, ps.PlanWords))
	r.set("batch.buckets", float64(ps.Buckets))
	qw := l.st[phase.BatchQueueWait]
	r.set("batch.queue_wait_ms", ratio(float64(qw.NS), float64(qw.Count))/1e6)

	ctr := func(s obs.Snapshot, name string) float64 { return float64(s.Metrics.Counters[name]) }
	r.set("serve.coalesce_ratio", ratio(ctr(l.after, "serve.coalesce.calls")-ctr(l.before, "serve.coalesce.calls"),
		ctr(l.after, "serve.coalesce.batches")-ctr(l.before, "serve.coalesce.batches")))
	hist := histDelta(l.before.Metrics.Histograms["serve.latency.ns"], l.after.Metrics.Histograms["serve.latency.ns"])
	r.set("serve.server_p50_ms", float64(hist.Quantile(0.5))/1e6)
	r.set("serve.server_p90_ms", float64(hist.Quantile(0.9))/1e6)
	r.set("serve.p99_ms", percentile(l.lat, 0.99))
	r.set("serve.rejected_ratio", ratio(float64(w.refused), float64(w.attempted)))
	r.set("serve.gen_late_p99_ms", percentile(l.late, 0.99))
	// Server-side request time is queue wait, compute and what no phase
	// covers: decoding, the coalesce window and the response write.
	r.set("obs.residual.ratio", 1-(computeNS(l.st)+float64(l.st[phase.ArenaDraw].NS)+float64(qw.NS))/float64(hist.SumNanos))
}

// histDelta is the histogram of the observations between two snapshots.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	prev := map[int64]int64{}
	for _, b := range before.Buckets {
		prev[b.LoNanos] = b.Count
	}
	d := obs.HistogramSnapshot{Count: after.Count - before.Count, SumNanos: after.SumNanos - before.SumNanos}
	for _, b := range after.Buckets {
		if n := b.Count - prev[b.LoNanos]; n > 0 {
			d.Buckets = append(d.Buckets, obs.HistogramBucket{LoNanos: b.LoNanos, HiNanos: b.HiNanos, Count: n})
		}
	}
	return d
}
