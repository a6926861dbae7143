package strassen

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/sched"
)

// Package-level runtimes for the DAG tests: built once, never closed (the
// test process owns them for its lifetime), with fixed seeds so steal
// victim order is reproducible.
var (
	rtOnce sync.Once
	rt1    *sched.Runtime // single worker: DAG runs fully sequentially
	rt4    *sched.Runtime
)

func testRuntimes() (*sched.Runtime, *sched.Runtime) {
	rtOnce.Do(func() {
		rt1 = sched.New(1, 1)
		rt4 = sched.New(4, 1)
	})
	return rt1, rt4
}

// TestSchedRuntimeMatchesSequential: an explicit task runtime must produce
// the same result (within recursion-reassociation tolerance) as the
// sequential engine, on the default path and across β classes.
func TestSchedRuntimeMatchesSequential(t *testing.T) {
	_, rt := testRuntimes()
	rng := rand.New(rand.NewSource(601))
	for _, dims := range [][3]int{{64, 64, 64}, {65, 33, 97}, {128, 96, 80}} {
		m, k, n := dims[0], dims[1], dims[2]
		for _, beta := range []float64{0, 0.5} {
			a := matrix.NewRandom(m, k, rng)
			b := matrix.NewRandom(k, n, rng)
			c1 := matrix.NewRandom(m, n, rng)
			c2 := c1.Clone()

			seq := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}}
			dag := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: rt, SchedLevels: 2}
			DGEFMM(seq, blas.NoTrans, blas.NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, c1.Data, c1.Stride)
			DGEFMM(dag, blas.NoTrans, blas.NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, c2.Data, c2.Stride)
			if d := matrix.MaxAbsDiff(c1, c2); d > tol(k) {
				t.Fatalf("dims=%v β=%v: DAG differs from sequential by %g", dims, beta, d)
			}
		}
	}
}

// TestSchedTableAlgoMatchesReference: the DAG generalizes to table
// algorithms — all R products of a non-default table run as tasks.
func TestSchedTableAlgoMatchesReference(t *testing.T) {
	skipIfAlgoPinned(t)
	_, rt := testRuntimes()
	rng := rand.New(rand.NewSource(602))
	for _, algoName := range []string{"classic", "323", "333"} {
		m, k, n := 81, 72, 90
		a := matrix.NewRandom(m, k, rng)
		b := matrix.NewRandom(k, n, rng)
		c := matrix.NewRandom(m, n, rng)
		want := refMul(blas.NoTrans, blas.NoTrans, 2, a, b, 0.25, c)
		cfg := &Config{Kernel: &blas.BlockedKernel{}, Criterion: Simple{Tau: 16}, Algo: algoName, Sched: rt}
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 2, a.Data, a.Stride, b.Data, b.Stride, 0.25, c.Data, c.Stride)
		if d := matrix.MaxAbsDiff(c, want); d > tol(k) {
			t.Fatalf("algo=%s: %g", algoName, d)
		}
	}
}

// TestSchedBitForBitAcrossWorkerCounts pins the determinism contract: with
// the bit-stable Compat kernel, the same configuration on a 1-worker and a
// 4-worker runtime produces identical bits — scheduling must not change
// the arithmetic.
func TestSchedBitForBitAcrossWorkerCounts(t *testing.T) {
	w1, w4 := testRuntimes()
	rng := rand.New(rand.NewSource(603))
	for _, dims := range [][3]int{{64, 64, 64}, {65, 33, 97}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := matrix.NewRandom(m, k, rng)
		b := matrix.NewRandom(k, n, rng)
		c1 := matrix.NewRandom(m, n, rng)
		c2 := c1.Clone()
		crit := Params{Tau: 16, TauM: 8, TauK: 8, TauN: 8}.Hybrid()
		run := func(rt *sched.Runtime, c *matrix.Dense) {
			cfg := &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: crit, Sched: rt, SchedLevels: 2}
			DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1.25, a.Data, a.Stride, b.Data, b.Stride, 0.5, c.Data, c.Stride)
		}
		run(w1, c1)
		run(w4, c2)
		if !c1.Equal(c2) {
			t.Fatalf("dims=%v: results differ between 1-worker and 4-worker runtimes", dims)
		}
	}
	// Leaves split into row bands on the 4-worker runtime: plain 48³
	// leaves under a DAG level (n = 96), and fused 48³ records under a DAG
	// level (n = 192).
	for _, m := range []int{96, 192} {
		a := matrix.NewRandom(m, m, rng)
		b := matrix.NewRandom(m, m, rng)
		c1 := matrix.NewRandom(m, m, rng)
		c2 := c1.Clone()
		run := func(rt *sched.Runtime, c *matrix.Dense) {
			cfg := &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: 48}, Sched: rt, SchedLevels: 1}
			DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1.25, a.Data, a.Stride, b.Data, b.Stride, 0.5, c.Data, c.Stride)
		}
		run(w1, c1)
		run(w4, c2)
		if !c1.Equal(c2) {
			t.Fatalf("n=%d: threaded leaves differ between 1-worker and 4-worker runtimes", m)
		}
	}
}

// cancelingCriterion cancels a context after the recursion has consulted
// it a fixed number of times — a deterministic way to expire a deadline
// mid-execution, independent of wall-clock speed. DAG workers consult it
// concurrently, so the count is atomic.
type cancelingCriterion struct {
	inner  Criterion
	cancel context.CancelFunc
	after  int64
	seen   atomic.Int64
}

func (c *cancelingCriterion) Name() string { return "canceling" }
func (c *cancelingCriterion) Recurse(m, k, n int) bool {
	if c.seen.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.Recurse(m, k, n)
}

// TestDGEFMMCtxCancelsMidExecution: a context canceled after the recursion
// has started must stop the remaining work and surface context.Canceled —
// on the sequential path and on the DAG path.
func TestDGEFMMCtxCancelsMidExecution(t *testing.T) {
	_, rt := testRuntimes()
	rng := rand.New(rand.NewSource(604))
	m := 96
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	for _, useSched := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		crit := &cancelingCriterion{inner: Simple{Tau: 8}, cancel: cancel, after: 3}
		cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: crit}
		if useSched {
			cfg.Sched = rt
		}
		c := matrix.NewDense(m, m)
		err := DGEFMMCtx(ctx, cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1,
			a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		cancel()
		if err != context.Canceled {
			t.Fatalf("sched=%v: err = %v, want context.Canceled", useSched, err)
		}
	}

	// A live context reports success and a correct result.
	c := matrix.NewDense(m, m)
	want := refMul(blas.NoTrans, blas.NoTrans, 1, a, b, 0, matrix.NewDense(m, m))
	cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: rt}
	if err := DGEFMMCtx(context.Background(), cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1,
		a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(c, want); d > tol(m) {
		t.Fatalf("live-context result off by %g", d)
	}
}

// TestSchedParamsResolution pins the knob resolution: a runtime sets the
// lanes to its worker count and levels to SchedLevels or the fan-out auto
// rule, and a sequential config resolves to no DAG.
func TestSchedParamsResolution(t *testing.T) {
	w1, w4 := testRuntimes()
	cases := []struct {
		name                string
		cfg                 *Config
		wantLanes, wantLvls int
		wantDAG             bool
	}{
		{"sequential", &Config{}, 0, 0, false},
		{"explicit runtime", &Config{Sched: w4}, 4, 1, true},
		{"explicit runtime levels", &Config{Sched: w4, SchedLevels: 2}, 4, 2, true},
		{"single worker runtime", &Config{Sched: w1}, 1, 1, true},
	}
	for _, tc := range cases {
		lanes, lvls, dag := tc.cfg.schedParams(7)
		if lanes != tc.wantLanes || lvls != tc.wantLvls || dag != tc.wantDAG {
			t.Errorf("%s: schedParams = (%d, %d, %v), want (%d, %d, %v)",
				tc.name, lanes, lvls, dag, tc.wantLanes, tc.wantLvls, tc.wantDAG)
		}
	}
	// Auto levels grow with workers relative to the fan-out: 7 products
	// cover 4 workers in one level, but a 2-product table needs two.
	if lv := schedAutoLevels(2, 4); lv != 2 {
		t.Errorf("schedAutoLevels(2, 4) = %d, want 2", lv)
	}
	if lv := schedAutoLevels(7, 64); lv != 3 {
		t.Errorf("schedAutoLevels(7, 64) = %d, want 3 (capped)", lv)
	}
}

// TestCriterionCoresResolution pins the calibrated lookup order:
// "<kernel>@<cores>/<algo>" beats "<kernel>@<cores>" beats the single-core
// chain ("<kernel>/<algo>", "<kernel>+fused", the kernel's row, blocked),
// and an explicit Criterion bypasses the table.
func TestCriterionCoresResolution(t *testing.T) {
	const kern = "naive"
	old := defaultParams.Load()
	defer defaultParams.Store(old)
	row := func(tau int) Params { return Params{Tau: tau, TauM: 1, TauK: 1, TauN: 1} }
	SetDefaultParams(kern+"@4", row(333))
	SetDefaultParams(kern+"@4/classic", row(444))
	SetDefaultParams(kern+"/classic", row(555))
	SetDefaultParams(kern+"+fused", row(666))

	for _, tc := range []struct {
		algo  string
		fused bool
		cores int
		want  int
	}{
		{"", false, 4, 333},
		{"classic", true, 4, 444},
		{"323", true, 4, 333},     // no @4/323 row
		{"classic", true, 2, 555}, // no @2 rows: the single-core chain
		{"323", true, 0, 666},     // no naive/323 row
		{"", false, 0, DefaultParams(kern).Tau},
	} {
		if got := calibrated(kern, tc.algo, tc.fused, tc.cores); got.Tau != tc.want {
			t.Errorf("calibrated(algo=%q fused=%v cores=%d) = %+v, want τ=%d",
				tc.algo, tc.fused, tc.cores, got, tc.want)
		}
	}
	if got := calibrated("???", "", true, 4); got != DefaultParams("blocked") {
		t.Errorf("unknown kernel resolved to %+v, want the blocked row", got)
	}
	// Every call looks its row up, so the lookup must not allocate.
	if allocs := testing.AllocsPerRun(100, func() { calibrated(kern, "classic", true, 4) }); allocs != 0 {
		t.Errorf("calibrated allocates %v times per lookup, want 0", allocs)
	}
	// The policy asks the lookup with the call's core count.
	if p := (&Config{Kernel: blas.NaiveKernel{}, Algo: "default"}).policy(64, 64, 64, 4); p.crit != nil || p.row.Tau != 333 {
		t.Errorf("cores=4 policy: crit %v row %+v, want the @4 row (τ=333)", p.crit, p.row)
	}
	// An explicit criterion always wins.
	fixed := Simple{Tau: 99}
	if p := (&Config{Kernel: blas.NaiveKernel{}, Criterion: fixed}).policy(64, 64, 64, 4); p.crit != Criterion(fixed) {
		t.Errorf("explicit criterion overridden: %v", p.crit)
	}
}

// TestSchedTrackerBalancedAndPlanned: the DAG's up-front buffer draws must
// balance to zero and peak at exactly the plan's workspace figure on a
// single-worker runtime, where one lane runs the products one after
// another and the plan's own + 1·child is the measured peak to the word.
func TestSchedTrackerBalancedAndPlanned(t *testing.T) {
	skipIfAlgoPinned(t)
	w1, _ := testRuntimes()
	rng := rand.New(rand.NewSource(605))
	tr := memtrack.New()
	cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: w1, SchedLevels: 1, Tracker: tr}
	m := 64
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	c := matrix.NewDense(m, m)
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	if tr.Live() != 0 {
		t.Fatalf("DAG run leaked %d words", tr.Live())
	}
	plan := PlanFor(&Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: w1, SchedLevels: 1}, m, m, m, true)
	if tr.Peak() != plan.Words {
		t.Fatalf("measured peak %d, planned words %d", tr.Peak(), plan.Words)
	}
}

// TestSchedLeavesDrawFromCallArena: every leaf of a DAG call draws from the
// configured kernel's arena, inside product tasks too, so a 2-worker call
// on the packed kernel with unfused leaves peaks there at Plan.KernelWords
// — two lanes, each inside one leaf. Whether two leaves overlap is up to
// the scheduler, so the call repeats until they have (the arena keeps its
// high-water mark); the peak must never pass the plan.
func TestSchedLeavesDrawFromCallArena(t *testing.T) {
	skipIfAlgoPinned(t)
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("two leaves overlap only with two Ps")
	}
	rt := sched.New(2, 7)
	defer rt.Close()
	rng := rand.New(rand.NewSource(607))
	m := 256
	pk := &kernel.Packed{}
	arena := memtrack.New()
	pk.SetArena(arena)
	cfg := &Config{Kernel: pk, Criterion: Simple{Tau: m / 2}, Fused: FusedOff, Sched: rt, SchedLevels: 1}
	plan := PlanFor(cfg, m, m, m, true)
	if want := 2 * pk.LeafWorkspace(m/2, m/2, m/2); plan.KernelWords != want {
		t.Fatalf("plan kernel words %d, want two lanes' leaves %d", plan.KernelWords, want)
	}
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	c := matrix.NewDense(m, m)
	for try := 0; try < 50 && arena.Peak() < plan.KernelWords; try++ {
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		if arena.Live() != 0 {
			t.Fatalf("call leaked %d arena words", arena.Live())
		}
	}
	if arena.Peak() != plan.KernelWords {
		t.Fatalf("kernel arena peak %d, plan kernel words %d", arena.Peak(), plan.KernelWords)
	}
}

// FuzzSchedDAG drives the determinism contract through arbitrary shapes,
// transposes and β classes: the identical configuration on a 1-worker and
// a 4-worker runtime must produce bit-for-bit equal results (scalar Compat
// kernel, so leaf arithmetic is bit-stable), and both must agree with the
// reference DGEMM within tolerance.
func FuzzSchedDAG(f *testing.F) {
	f.Add(uint8(64), uint8(64), uint8(64), uint8(0), 0.0)
	f.Add(uint8(65), uint8(33), uint8(97), uint8(1), 0.5)
	f.Add(uint8(96), uint8(17), uint8(80), uint8(2), 1.0)
	f.Add(uint8(48), uint8(96), uint8(24), uint8(3), -0.75)
	f.Fuzz(func(t *testing.T, mb, kb, nb, bits uint8, beta float64) {
		m, k, n := int(mb%100)+1, int(kb%100)+1, int(nb%100)+1
		ta, tb := blas.NoTrans, blas.NoTrans
		if bits&1 != 0 {
			ta = blas.Trans
		}
		if bits&2 != 0 {
			tb = blas.Trans
		}
		if beta != beta || beta > 1e6 || beta < -1e6 {
			beta = 1
		}
		rng := rand.New(rand.NewSource(int64(m)<<16 | int64(k)<<8 | int64(n)))
		rowsA, colsA := m, k
		if ta.IsTrans() {
			rowsA, colsA = k, m
		}
		rowsB, colsB := k, n
		if tb.IsTrans() {
			rowsB, colsB = n, k
		}
		a := matrix.NewRandom(rowsA, colsA, rng)
		b := matrix.NewRandom(rowsB, colsB, rng)
		c0 := matrix.NewRandom(m, n, rng)

		w1, w4 := testRuntimes()
		crit := Params{Tau: 16, TauM: 8, TauK: 8, TauN: 8}.Hybrid()
		run := func(rt *sched.Runtime) *matrix.Dense {
			c := c0.Clone()
			cfg := &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: crit, Sched: rt, SchedLevels: 2}
			DGEFMM(cfg, ta, tb, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
			return c
		}
		c1, c4 := run(w1), run(w4)
		if !c1.Equal(c4) {
			t.Fatalf("m=%d k=%d n=%d ta=%v tb=%v β=%v: worker count changed the bits", m, k, n, ta, tb, beta)
		}
		want := c0.Clone()
		blas.Dgemm(ta, tb, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, want.Data, want.Stride)
		if d := matrix.MaxAbsDiff(c4, want); d > tol(k)*(1+absf(beta)) {
			t.Fatalf("m=%d k=%d n=%d: off reference by %g", m, k, n, d)
		}
	})
}

// panickingKernel fails on its nth leaf multiply.
type panickingKernel struct {
	blas.NaiveKernel
	calls *atomic.Int64
	nth   int64
}

func (k panickingKernel) MulAdd(transA, transB blas.Transpose, m, n, kk int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if k.calls.Add(1) == k.nth {
		panic("leaf kernel failure")
	}
	k.NaiveKernel.MulAdd(transA, transB, m, n, kk, alpha, a, lda, b, ldb, c, ldc)
}

// TestDGEFMMTaskPanicReachesCaller: a leaf kernel panicking inside a
// product task must surface as a panic in DGEFMM's caller (not kill the
// process from a scheduler goroutine), leave the workspace tracker
// balanced, and leave the runtime usable for the next call.
func TestDGEFMMTaskPanicReachesCaller(t *testing.T) {
	w1, w4 := testRuntimes()
	rng := rand.New(rand.NewSource(605))
	m := 64
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	for _, rt := range []*sched.Runtime{w1, w4} {
		tr := memtrack.New()
		cfg := &Config{Kernel: panickingKernel{calls: new(atomic.Int64), nth: 5},
			Criterion: Simple{Tau: 8}, Sched: rt, SchedLevels: 2, Tracker: tr}
		c := matrix.NewDense(m, m)
		got := func() (v any) {
			defer func() { v = recover() }()
			DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
			return nil
		}()
		if got != "leaf kernel failure" {
			t.Fatalf("workers=%d: DGEFMM panicked with %v, want the kernel's panic", rt.Workers(), got)
		}
		if live := tr.Live(); live != 0 {
			t.Errorf("workers=%d: %d workspace words leaked by the failed call", rt.Workers(), live)
		}
		ok := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: rt, SchedLevels: 2}
		want := refMul(blas.NoTrans, blas.NoTrans, 1, a, b, 0, matrix.NewDense(m, m))
		DGEFMM(ok, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		if d := matrix.MaxAbsDiff(c, want); d > tol(m) {
			t.Fatalf("workers=%d: call after the panic off by %g", rt.Workers(), d)
		}
	}
}
