package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/memtrack"
	"repro/internal/obs"
	"repro/internal/phase"
	"repro/internal/sched"
	"repro/internal/stability"
	"repro/internal/strassen"
)

// matSpec is one matrix workload: C ← α·A·B + β·C on square order-n
// operands, issued by one closed-loop caller, one call at a time.
type matSpec struct {
	n           int
	alpha, beta float64
	// parallel runs the call on a GOMAXPROCS-worker sched runtime.
	parallel bool
}

var (
	// squareB0 is the paper's default STRASSEN1 path: β = 0 selects the
	// schedule that uses C as scratch; n = 1024 recurses two levels with the
	// last one fused, and every dimension stays even, so nothing is peeled.
	// Each 8 MB operand exceeds the per-core caches, so add/sub, quadrant and
	// fused traffic carry the Strassen overhead.
	squareB0 = matSpec{n: 1024, alpha: 1, beta: 0}
	// oddUpdate is the paper's Table 5 setting: general β selects STRASSEN2
	// and the odd order peels at every level — the other schedule of the
	// strassen layer, so a gain for one that costs the other shows.
	oddUpdate = matSpec{n: 1023, alpha: 1.0 / 3, beta: 0.25}
	// parSquare is squareB0 on a work-stealing runtime with one worker per
	// CPU: the only workload where the product DAG, stealing and the
	// threaded MC loop do real work.
	parSquare = matSpec{n: 1024, alpha: 1, beta: 0, parallel: true}
)

// setups is how many fresh set-ups setup_s takes the median of.
const setups = 9

func (s matSpec) flops() float64 { return bench.GemmFlops(s.n, s.n, s.n) }

func (s matSpec) workers() int {
	if s.parallel {
		return runtime.GOMAXPROCS(0)
	}
	return 0
}

// subject is the call under test with the state it owns: a fresh kernel
// (with its own packing arena), a workspace tracker and, for a parallel
// workload, a task runtime.
type subject struct {
	cfg  *strassen.Config
	kern blas.Kernel
	rt   *sched.Runtime
	// run performs one call into c. Tests replace it to inject faults.
	run func(c []float64)
}

func newSubject(s matSpec, in *matInputs, workers int) *subject {
	sub := &subject{kern: blas.CloneKernel(kernel.Default())}
	sub.cfg = strassen.DefaultConfig(sub.kern)
	sub.cfg.Tracker = memtrack.New()
	if workers > 0 {
		sub.rt = sched.New(workers, 0)
		sub.cfg.Sched = sub.rt
	}
	sub.run = func(c []float64) { callDGEFMM(sub.cfg, s, in, c) }
	return sub
}

func (sub *subject) close() {
	if sub.rt != nil {
		sub.rt.Close()
	}
}

// workspaceWords is the peak extra memory the subject has held: Strassen
// temporaries plus kernel packing buffers.
func (sub *subject) workspaceWords() int64 {
	return sub.cfg.Tracker.Peak() + kernelArena(sub.kern).Peak()
}

func callDGEFMM(cfg *strassen.Config, s matSpec, in *matInputs, c []float64) {
	n := s.n
	strassen.DGEFMM(cfg, blas.NoTrans, blas.NoTrans, n, n, n, s.alpha, in.a, n, in.b, n, s.beta, c, n)
}

func callDGEMM(k blas.Kernel, s matSpec, in *matInputs, c []float64) {
	n := s.n
	blas.DgemmKernel(k, blas.NoTrans, blas.NoTrans, n, n, n, s.alpha, in.a, n, in.b, n, s.beta, c, n)
}

// kernelArena is the packing arena of kernels that keep one (nil otherwise;
// a nil Tracker reports zeros).
func kernelArena(k blas.Kernel) *memtrack.Tracker {
	if ak, ok := k.(interface{ Arena() *memtrack.Tracker }); ok {
		return ak.Arena()
	}
	return nil
}

func tileCounters(k blas.Kernel) (simd, scalar int64) {
	if tk, ok := k.(interface{ TileCounters() (int64, int64) }); ok {
		return tk.TileCounters()
	}
	return 0, 0
}

// checker decides whether one subject result is correct.
type checker struct {
	// want is the DGEMM result on the same operands.
	want []float64
	// bound is the Higham-style normwise bound on |DGEFMM − DGEMM|.
	bound float64
	// exact, when non-nil, is a result the subject must reproduce bit for
	// bit (the same DAG schedule run on one worker).
	exact []float64
}

// newChecker computes the references outside any timed region.
func newChecker(s matSpec, in *matInputs, depth int) *checker {
	ch := &checker{want: append([]float64(nil), in.c0...)}
	callDGEMM(blas.CloneKernel(kernel.Default()), s, in, ch.want)
	// DGEMM's error is at most k·u·|α|·max|A|·max|B| per entry and d levels
	// of Winograd recursion multiply that constant by about 6^d (Higham,
	// §23.2.2); the two results may differ by the sum of both, plus the
	// rounding of the β·C term.
	ch.bound = stability.Unit * (float64(s.n)*math.Abs(s.alpha)*maxAbs(in.a)*maxAbs(in.b)*(1+stability.HighamGrowth(depth)) +
		2*math.Abs(s.beta)*maxAbs(in.c0))
	if s.parallel {
		one := newSubject(s, in, 1)
		ch.exact = append([]float64(nil), in.c0...)
		one.run(ch.exact)
		one.close()
	}
	return ch
}

// check reports whether got is correct, and its distance from the DGEMM
// result as a share of the bound.
func (ch *checker) check(got []float64) (ok bool, errRatio float64) {
	diff := 0.0
	for i, v := range got {
		d := math.Abs(v - ch.want[i])
		if !(d <= diff) { // also catches NaN
			diff = d
		}
	}
	ok = diff <= ch.bound
	if ch.exact != nil {
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(ch.exact[i]) {
				ok = false
				break
			}
		}
	}
	return ok, diff / ch.bound
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// matRun is one matrix workload's measurement state.
type matRun struct {
	spec matSpec
	in   *matInputs
	sub  *subject
	ref  blas.Kernel // the DGEMM arm's kernel
	chk  *checker
	plan *strassen.Plan

	attempted, wrong int
	maxErr           float64
	c                []float64 // result buffer, reset from C₀ before each call
}

// newMatRun generates the inputs and sets the workload up; it returns the
// median set-up time in seconds alongside.
func newMatRun(s matSpec, seed int64) (*matRun, float64) {
	in := genMatInputs(s.n, seed)
	var times []float64
	var sub *subject
	c := make([]float64, len(in.c0))
	for i := 0; i < setups; i++ {
		if sub != nil {
			sub.close()
			runtime.GC() // a discarded set-up's workspace must not inflate the RSS peak
		}
		copy(c, in.c0)
		t0 := time.Now()
		sub = newSubject(s, in, s.workers())
		sub.run(c)
		times = append(times, time.Since(t0).Seconds())
	}
	m := &matRun{spec: s, in: in, sub: sub, ref: blas.CloneKernel(kernel.Default()), c: c}
	m.plan = strassen.PlanFor(sub.cfg, s.n, s.n, s.n, s.beta == 0)
	m.chk = newChecker(s, in, m.plan.Depth)
	return m, medianOf(times)
}

// timed resets C from C₀, times one call in milliseconds and checks the
// result when the call is the subject's.
func (m *matRun) timed(call func(c []float64), isSubject bool) float64 {
	copy(m.c, m.in.c0)
	t0 := time.Now()
	call(m.c)
	ms := msSince(t0)
	if isSubject {
		m.verify()
	}
	return ms
}

// verify checks the subject's result in m.c and counts it.
func (m *matRun) verify() {
	m.attempted++
	ok, e := m.chk.check(m.c)
	if !ok {
		m.wrong++
	}
	m.maxErr = math.Max(m.maxErr, e)
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// measure runs DGEMM/subject pairs on the same operands until the deadline,
// alternating which arm goes first, and returns both arms' call times.
func (m *matRun) measure(d time.Duration) (dgemm, subj []float64) {
	gemm := func(c []float64) { callDGEMM(m.ref, m.spec, m.in, c) }
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		var tg, ts float64
		if i%2 == 0 {
			tg = m.timed(gemm, false)
			ts = m.timed(m.sub.run, true)
		} else {
			ts = m.timed(m.sub.run, true)
			tg = m.timed(gemm, false)
		}
		dgemm = append(dgemm, tg)
		subj = append(subj, ts)
	}
	return dgemm, subj
}

func runMatrix(s matSpec, o opts) (*report, error) {
	m, setup := newMatRun(s, o.seed)
	defer m.sub.close()
	m.timed(m.sub.run, false) // warm caches after the set-ups
	runtime.GC()
	r := newReport(m.in.digest)
	if o.traced {
		m.traced(r, o.dur)
	} else {
		dgemm, subj := m.measure(o.dur)
		r.set("setup_s", setup)
		r.set("speedup_vs_dgemm", pairedRatio(dgemm, subj))
		r.set("workspace_mb", float64(m.sub.workspaceWords())*8/1e6)
	}
	r.attempted, r.wrong, r.failed = m.attempted, m.wrong, m.wrong
	return r, nil
}

// setWall reports the absolute throughput (GFLOP/s) and the median and tail
// percentile of call times.
func setWall(r *report, gflops float64, ms []float64) {
	r.set("wall.gflops", gflops)
	r.set("wall.p50_ms", percentile(ms, 0.5))
	r.set("wall.p90_ms", percentile(ms, 0.9))
	if b := samplesBeyond(len(ms), 0.9); b < minBeyond {
		r.notef("wall.p90_ms has %d samples beyond it (want %d); lengthen the run", b, minBeyond)
	}
}

// rootedSpans parents the engine's top-level spans under the benchmark's
// own per-call span, so every call's recursion tree hangs off one root.
type rootedSpans struct {
	*obs.SpanRecorder
	root int64
}

func (t *rootedSpans) BeginSpan(parent int64, e strassen.TraceEvent) int64 {
	if parent == 0 {
		parent = t.root
	}
	return t.SpanRecorder.BeginSpan(parent, e)
}

// traced runs rounds of an untraced and a traced subject call (plus, on
// the parallel workload, the same call on a one-worker runtime) in rotating
// order, and derives the per-layer metrics from the traced calls only,
// except the wall.* times, which come from the untraced calls.
// Here every parallel call gets a runtime of its own, closed right after
// the call: a worker parks with the profiler it sees when it parks, so a
// runtime left idle across a traced call would charge its whole idle spell
// to that call.
func (m *matRun) traced(r *report, d time.Duration) {
	s := m.spec
	prof := &phase.Profiler{}
	rec := obs.NewSpanRecorder()
	spans := &rootedSpans{SpanRecorder: rec}

	var untraced, tracedMS, single, windowNS []float64
	var schedStats []sched.Stats
	call := func(workers int, traced bool) float64 {
		copy(m.c, m.in.c0)
		cfg := *m.sub.cfg
		var prev *phase.Profiler
		if traced {
			prev = phase.SetActive(prof)
			cfg.Tracer = spans
		}
		w0 := time.Now()
		if workers > 0 {
			cfg.Sched = sched.New(workers, 0)
		}
		if traced {
			spans.root = rec.BeginSpan(0, strassen.TraceEvent{Action: "call", M: s.n, K: s.n, N: s.n})
		}
		t0 := time.Now()
		callDGEFMM(&cfg, s, m.in, m.c)
		ms := msSince(t0)
		if traced {
			rec.EndSpan(spans.root)
		}
		if cfg.Sched != nil {
			cfg.Sched.Close()
		}
		if traced {
			if cfg.Sched != nil {
				schedStats = append(schedStats, cfg.Sched.Stats())
			}
			windowNS = append(windowNS, float64(time.Since(w0).Nanoseconds()))
			phase.SetActive(prev)
		}
		m.verify()
		return ms
	}
	arms := []func(){
		func() { untraced = append(untraced, call(s.workers(), false)) },
		func() { tracedMS = append(tracedMS, call(s.workers(), true)) },
	}
	if s.parallel {
		arms = append(arms, func() { single = append(single, call(1, false)) })
	}
	simd0, scalar0 := tileCounters(m.sub.kern)
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		for j := range arms {
			arms[(i+j)%len(arms)]()
		}
	}
	simd1, scalar1 := tileCounters(m.sub.kern)
	st := prof.Snapshot()

	calls := float64(len(tracedMS))
	wall := sum(tracedMS) * 1e6 // ns of traced call time on the caller's thread
	busy := wall
	if s.parallel {
		busy = float64(s.workers()) * sum(windowNS)
	}
	setPhaseMetrics(r, st, busy, calls*s.flops())
	setWall(r, s.flops()*float64(len(untraced))/sum(untraced)/1e6, untraced)
	r.set("kernel.simd_tile_ratio", ratio(float64(simd1-simd0), float64(simd1-simd0+scalar1-scalar0)))
	r.set("strassen.depth", float64(m.plan.Depth))
	r.set("strassen.nodes_per_call", float64(rec.Len()-len(tracedMS))/calls)
	r.set("strassen.err_ratio", m.maxErr)
	r.set("arena.peak_mwords", float64(m.sub.cfg.Tracker.Peak())/1e6)
	r.set("arena.plan_ratio", planRatio(m.sub.cfg.Tracker.Peak(), m.plan.Words))
	if s.parallel {
		var tasks, steals, maxRun int64
		for _, ss := range schedStats {
			tasks += ss.TasksRun
			steals += ss.Steals
			if ss.MaxRunning > maxRun {
				maxRun = ss.MaxRunning
			}
		}
		r.set("sched.tasks_per_call", float64(tasks)/calls)
		r.set("sched.steals_per_call", float64(steals)/calls)
		r.set("sched.max_running", float64(maxRun))
		r.set("sched.parallel_speedup", pairedRatio(single, untraced))
		// Worker time is compute, stealing or parked; the task_run frames
		// nest (a task that threads its leaf runs further tasks inside), so
		// they cannot be summed. The caller's own workspace draws overlap
		// parked workers and are left out for the same reason.
		r.set("obs.residual.ratio", 1-(computeNS(st)+float64(st[phase.SchedSteal].NS+st[phase.SchedIdle].NS))/busy)
	} else {
		r.set("obs.residual.ratio", 1-(computeNS(st)+float64(st[phase.ArenaDraw].NS))/wall)
	}
	r.set("trace.overhead.ratio", pairedRatio(tracedMS, untraced))
	r.spans = rec
	r.phases = st
}

// planRatio is the measured workspace peak over the planned figure; a
// workload that allocates none matches its plan exactly.
func planRatio(peak, planned int64) float64 {
	if peak == 0 && planned == 0 {
		return 1
	}
	return ratio(float64(peak), float64(planned))
}

// computeNS sums the leaf compute phases: kernel and Strassen work, which
// never nest inside one another.
func computeNS(st []phase.Stat) float64 {
	t := 0.0
	for _, id := range []phase.ID{phase.KernelPackA, phase.KernelPackB, phase.KernelMicro, phase.KernelFringe,
		phase.KernelFusedPack, phase.KernelFusedWriteout,
		phase.StrassenAddSub, phase.StrassenQuadrant, phase.StrassenPeel} {
		t += float64(st[id].NS)
	}
	return t
}

// setPhaseMetrics derives the per-phase shares and rates. busy is the
// thread time (ns) the shares divide; flops is the standard-algorithm
// operation count 2mnk of the profiled calls.
func setPhaseMetrics(r *report, st []phase.Stat, busy, flops float64) {
	share := func(ids ...phase.ID) float64 {
		t := 0.0
		for _, id := range ids {
			t += float64(st[id].NS)
		}
		return ratio(t, busy)
	}
	rate := func(get func(phase.Stat) int64, ids ...phase.ID) float64 { // per ns = G/s
		var num, ns int64
		for _, id := range ids {
			num += get(st[id])
			ns += st[id].NS
		}
		return ratio(float64(num), float64(ns))
	}
	flopsOf := func(s phase.Stat) int64 { return s.Flops }
	bytesOf := func(s phase.Stat) int64 { return s.Bytes }
	r.set("kernel.micro.gflops", rate(flopsOf, phase.KernelMicro))
	r.set("kernel.micro.share", share(phase.KernelMicro))
	r.set("kernel.fringe.share", share(phase.KernelFringe))
	r.set("kernel.pack.share", share(phase.KernelPackA, phase.KernelPackB))
	r.set("kernel.pack.gbps", rate(bytesOf, phase.KernelPackA, phase.KernelPackB))
	r.set("kernel.fused_pack.share", share(phase.KernelFusedPack))
	r.set("kernel.fused_writeout.share", share(phase.KernelFusedWriteout))
	r.set("strassen.addsub.share", share(phase.StrassenAddSub))
	r.set("strassen.addsub.gbps", rate(bytesOf, phase.StrassenAddSub))
	r.set("strassen.quadrant.share", share(phase.StrassenQuadrant))
	r.set("strassen.quadrant.gbps", rate(bytesOf, phase.StrassenQuadrant))
	r.set("strassen.peel.share", share(phase.StrassenPeel))
	r.set("arena.draw.share", share(phase.ArenaDraw))
	r.set("sched.task_run.share", share(phase.SchedTaskRun))
	r.set("sched.idle_ratio", share(phase.SchedIdle))
	var total int64
	for _, s := range st {
		total += s.Flops
	}
	r.set("strassen.flop_ratio", ratio(float64(total), flops))
}

// matInputs are one matrix workload's operands, all drawn from the seed.
type matInputs struct {
	a, b, c0 []float64
	digest   string
}

func genMatInputs(n int, seed int64) *matInputs {
	g := newGen(seed)
	in := &matInputs{a: g.matrix(n * n), b: g.matrix(n * n), c0: g.matrix(n * n)}
	in.digest = g.digest()
	return in
}
