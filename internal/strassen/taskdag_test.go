package strassen

import (
	"context"
	"math/rand"
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

// TestSchedParamsResolution pins the knob resolution: the compat shim maps
// Parallel/ParallelLevels onto lanes/levels with legacy defaults, an
// explicit runtime defaults lanes to its worker count and levels to the
// fan-out auto rule, and a sequential config resolves to no DAG.
func TestSchedParamsResolution(t *testing.T) {
	w1, w4 := testRuntimes()
	cases := []struct {
		name                string
		cfg                 *Config
		wantLanes, wantLvls int
		wantDAG             bool
	}{
		{"sequential", &Config{}, 0, 0, false},
		{"compat shim", &Config{Parallel: 4}, 4, 1, true},
		{"compat shim levels", &Config{Parallel: 2, ParallelLevels: 3}, 2, 3, true},
		{"explicit runtime", &Config{Sched: w4}, 4, 1, true},
		{"explicit runtime levels", &Config{Sched: w4, SchedLevels: 2}, 4, 2, true},
		{"runtime with lane cap", &Config{Sched: w4, Parallel: 2}, 2, 1, true},
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

// TestCriterionCoresResolution pins the τ-vs-cores lookup order: explicit
// Criterion beats "<kernel>@<cores>/<algo>" beats "<kernel>@<cores>" beats
// the single-core chain.
func TestCriterionCoresResolution(t *testing.T) {
	const kern = "naive"
	defer func() {
		delete(defaultParams, kern+"@4")
		delete(defaultParams, kern+"@4/classic")
	}()
	SetDefaultParams(kern+"@4", Params{Tau: 333, TauM: 1, TauK: 1, TauN: 1})
	SetDefaultParams(kern+"@4/classic", Params{Tau: 444, TauM: 1, TauK: 1, TauN: 1})

	cfg := &Config{Kernel: blas.NaiveKernel{}}
	if h, ok := cfg.criterionCores("", 4).(Hybrid); !ok || h.Tau != 333 {
		t.Errorf("cores=4: got %+v, want the @4 row (τ=333)", h)
	}
	if h, ok := cfg.criterionCores("classic", 4).(Hybrid); !ok || h.Tau != 444 {
		t.Errorf("cores=4 algo=classic: got %+v, want the @4/classic row (τ=444)", h)
	}
	// No @2 row: falls back to the single-core chain.
	single := cfg.criterionFor("")
	if got := cfg.criterionCores("", 2); got != single {
		t.Errorf("cores=2 without a calibrated row resolved to %v, want single-core %v", got, single)
	}
	// An explicit criterion always wins.
	fixed := Simple{Tau: 99}
	cfg2 := &Config{Kernel: blas.NaiveKernel{}, Criterion: fixed}
	if got := cfg2.criterionCores("", 4); got != Criterion(fixed) {
		t.Errorf("explicit criterion overridden: %v", got)
	}
}

// TestSchedTrackerBalancedAndPlanned: the DAG's up-front buffer draws must
// balance to zero and stay within the plan's workspace figure on a
// single-worker runtime (where execution is fully sequential, the plan's
// conc×child term is an upper bound).
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
	if tr.Peak() > plan.Words {
		t.Fatalf("measured peak %d exceeds planned words %d", tr.Peak(), plan.Words)
	}
	// The level's own buffers (4S + 4T + 7P at m/2) are always live at once.
	own := int64(15 * (m / 2) * (m / 2))
	if tr.Peak() < own {
		t.Fatalf("peak %d below the level's own buffer draw %d", tr.Peak(), own)
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
