package strassen

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/phase"
	"repro/internal/sched"
)

// Package-level runtimes for the runtime tests: built once, never closed
// (the test process owns them for its lifetime), with fixed seeds so steal
// victim order is reproducible.
var (
	rtOnce sync.Once
	rt1    *sched.Runtime // single worker: every pass runs inline
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
// the bits of the call without one, on the default path, on odd shapes and
// across β classes.
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
			par := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: rt}
			DGEFMM(seq, blas.NoTrans, blas.NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, c1.Data, c1.Stride)
			DGEFMM(par, blas.NoTrans, blas.NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, c2.Data, c2.Stride)
			if !c1.Equal(c2) {
				t.Fatalf("dims=%v β=%v: the runtime changed the bits (max diff %g)", dims, beta, matrix.MaxAbsDiff(c1, c2))
			}
		}
	}
}

// TestSchedTableAlgoMatchesReference: table algorithms run on a runtime
// too — a non-default table's level threads its passes and leaves.
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
// the bit-stable Compat kernel, the same configuration without a runtime,
// on a 1-worker and on a 4-worker runtime produces identical bits —
// threading must not change the arithmetic.
func TestSchedBitForBitAcrossWorkerCounts(t *testing.T) {
	w1, w4 := testRuntimes()
	rng := rand.New(rand.NewSource(603))
	check := func(what string, m, k, n int, crit Criterion) {
		t.Helper()
		a := matrix.NewRandom(m, k, rng)
		b := matrix.NewRandom(k, n, rng)
		c0 := matrix.NewRandom(m, n, rng)
		var want *matrix.Dense
		for _, rt := range []*sched.Runtime{nil, w1, w4} {
			cfg := &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: crit}
			if rt != nil {
				cfg.Sched = rt
			}
			c := c0.Clone()
			DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1.25, a.Data, a.Stride, b.Data, b.Stride, 0.5, c.Data, c.Stride)
			if want == nil {
				want = c
			} else if !c.Equal(want) {
				t.Fatalf("%s: %d workers changed the bits", what, rt.Workers())
			}
		}
	}
	for _, dims := range [][3]int{{64, 64, 64}, {65, 33, 97}} {
		check(fmt.Sprint("dims=", dims), dims[0], dims[1], dims[2], Params{Tau: 16, TauM: 8, TauK: 8, TauN: 8}.Hybrid())
	}
	// Leaves split into column bands on the 4-worker runtime: plain 48³
	// leaves under a materialized level (n = 96), and fused 48³ records
	// under one (n = 192).
	for _, m := range []int{96, 192} {
		check(fmt.Sprint("n=", m), m, m, m, Simple{Tau: 48})
	}
}

// cancelingCriterion cancels a context after the recursion has consulted
// it a fixed number of times — a deterministic way to expire a deadline
// mid-execution, independent of wall-clock speed.
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

// cancelingSubmitter cancels a context as the after-th pass submitted
// through it starts, then runs the pass: its tasks see the context
// expired.
type cancelingSubmitter struct {
	sched.Submitter
	cancel context.CancelFunc
	after  int
	runs   int
}

func (s *cancelingSubmitter) Run(ctx context.Context, d *sched.DAG) error {
	if s.runs++; s.runs == s.after {
		s.cancel()
	}
	return s.Submitter.Run(ctx, d)
}

// TestDGEFMMCtxCancelsMidExecution: a context canceled after the recursion
// has started must stop the remaining work and surface context.Canceled —
// on the sequential path and on a runtime, and inside a pass threaded by
// column bands, whose bands do not start once the context has expired.
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

	// One STRASSEN1 level over naive leaves, on 4 workers: the first pass
	// (R1 ← A11 − A21) runs and the context expires as the second starts.
	// Every later pass's bands are skipped and every product returns at
	// its entry, so C keeps the value it had.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub := &cancelingSubmitter{Submitter: rt, cancel: cancel, after: 2}
	lvl := &Config{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 1}
	c.Fill(7)
	err := DGEFMMTask(ctx, sub, lvl, blas.NoTrans, blas.NoTrans, m, m, m, 1,
		a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	if err != context.Canceled {
		t.Fatalf("banded pass: err = %v, want context.Canceled", err)
	}
	if sub.runs < 3 {
		t.Fatalf("banded pass: %d passes submitted, want the level's later ones too", sub.runs)
	}
	for i, v := range c.Data {
		if v != 7 {
			t.Fatalf("banded pass: C word %d written (%g) after the context expired", i, v)
		}
	}
}

// TestSchedParamsResolution pins what a runtime resolves to: the core
// count the calibrated rows and the plan see (schedCores), and the column
// bands a lin pass splits into — one per worker when the destination has
// at least as many columns, none (inline) with no runtime, one worker, no
// rows or fewer columns than workers.
func TestSchedParamsResolution(t *testing.T) {
	w1, w4 := testRuntimes()
	for _, tc := range []struct {
		name  string
		cfg   *Config
		cores int
	}{{"sequential", &Config{}, 0}, {"single worker runtime", &Config{Sched: w1}, 1}, {"runtime", &Config{Sched: w4}, 4}} {
		if got := tc.cfg.schedCores(); got != tc.cores {
			t.Errorf("%s: schedCores = %d, want %d", tc.name, got, tc.cores)
		}
	}
	for _, tc := range []struct {
		name       string
		sub        sched.Submitter
		rows, cols int
		want       int
	}{
		{"no runtime", nil, 8, 8, 0}, {"1 worker", w1, 8, 8, 0}, {"4 workers", w4, 8, 3, 0},
		{"4 workers", w4, 0, 8, 0}, {"4 workers", w4, 8, 4, 4}, {"4 workers", w4, 1, 13, 4},
	} {
		if got := linBands(tc.sub, tc.rows, tc.cols); got != tc.want {
			t.Errorf("linBands(%s, %d×%d) = %d, want %d", tc.name, tc.rows, tc.cols, got, tc.want)
		}
	}
}

// TestBandedLin: a lin pass threaded by column bands on a 2- or 3-worker
// runtime writes the bits one matrix.Lin call does and charges its phase
// the same FLOPs and bytes, on destinations with fewer columns than
// workers, exactly as many and a prime number, from plain, transposed and
// padded sources and the destination's own old value, in sums of one to
// five terms.
func TestBandedLin(t *testing.T) {
	w2, w3 := sched.New(2, 1), sched.New(3, 1)
	defer w2.Close()
	defer w3.Close()
	rng := rand.New(rand.NewSource(608))
	const rows = 5
	for _, rt := range []*sched.Runtime{w2, w3} {
		for _, cols := range []int{1, 2, 3, 13} {
			x := matrix.NewRandom(rows, cols, rng)
			yt := matrix.NewRandom(cols, rows, rng)            // read transposed
			z := matrix.NewRandom(rows-1, max(cols-1, 1), rng) // read padded
			zv := matrix.ViewOf(z)
			if cols == 1 {
				zv = zv.Slice(0, 0, rows-1, 0)
			}
			zv = zv.PadTo(rows, cols)
			xv, yv := matrix.ViewOf(x), matrix.ViewOp(yt, true)
			for ti, ts := range [][]matrix.Term{
				{{G: 1, X: xv}, {G: -1, X: yv}},
				{{G: 0.25, X: zv}},
				{{G: 1, Dst: true}, {G: -1, X: zv}},
				{{G: 0.5, Dst: true}},
				{{G: 0, X: xv}},
				{{G: 1, X: yv}, {G: 1, X: xv}, {G: -1, X: zv}, {G: 1, Dst: true}, {G: 3, X: xv}},
			} {
				d0 := matrix.NewRandom(rows, cols, rng)
				run := func(sub sched.Submitter) (*matrix.Dense, phase.Stat) {
					e := &engine{sub: sub, prof: &phase.Profiler{}}
					d := d0.Clone()
					e.lin(phAS, d, ts...)
					return d, e.prof.Snapshot()[phAS]
				}
				want, wantStat := run(nil)
				got, gotStat := run(rt)
				what := fmt.Sprintf("workers=%d cols=%d terms#%d", rt.Workers(), cols, ti)
				if !got.Equal(want) {
					t.Fatalf("%s: banded pass %v, one Lin call %v", what, got.Data, want.Data)
				}
				if gotStat.Count != wantStat.Count || gotStat.Flops != wantStat.Flops || gotStat.Bytes != wantStat.Bytes {
					t.Errorf("%s: banded pass charged %+v, one Lin call %+v", what, gotStat, wantStat)
				}
			}
		}
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

// TestSchedTrackerBalancedAndPlanned: on a 1-worker and a 4-worker
// runtime a call draws the workspace it draws without one: the tracker
// balances to zero and peaks at exactly the plan's Words, which equal the
// sequential plan's.
func TestSchedTrackerBalancedAndPlanned(t *testing.T) {
	skipIfAlgoPinned(t)
	w1, w4 := testRuntimes()
	rng := rand.New(rand.NewSource(605))
	m := 64
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	seq := PlanFor(&Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}}, m, m, m, true)
	for _, rt := range []*sched.Runtime{w1, w4} {
		tr := memtrack.New()
		cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: rt, Tracker: tr}
		c := matrix.NewDense(m, m)
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		if tr.Live() != 0 {
			t.Fatalf("workers=%d: run leaked %d words", rt.Workers(), tr.Live())
		}
		plan := PlanFor(&Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: rt}, m, m, m, true)
		if tr.Peak() != plan.Words || plan.Words != seq.Words || plan.Depth != seq.Depth {
			t.Fatalf("workers=%d: measured peak %d, planned words %d depth %d; sequential plan %d words depth %d",
				rt.Workers(), tr.Peak(), plan.Words, plan.Depth, seq.Words, seq.Depth)
		}
	}
}

// TestSchedLeavesDrawFromCallArena: every leaf of a runtime call draws
// from the configured kernel's arena, so a 2-worker call on the packed
// kernel with unfused leaves peaks there at Plan.KernelWords — one leaf at
// a time, threaded over both workers, which draws its buffers up front.
func TestSchedLeavesDrawFromCallArena(t *testing.T) {
	skipIfAlgoPinned(t)
	rt := sched.New(2, 7)
	defer rt.Close()
	rng := rand.New(rand.NewSource(607))
	m := 256
	pk := &kernel.Packed{}
	arena := memtrack.New()
	pk.SetArena(arena)
	cfg := &Config{Kernel: pk, Criterion: Simple{Tau: m / 2}, Fused: FusedOff, Sched: rt}
	plan := PlanFor(cfg, m, m, m, true)
	if want := pk.CallWorkspace(2, 1, m/2, m/2, m/2); plan.KernelWords != want {
		t.Fatalf("plan kernel words %d, want one threaded leaf's %d", plan.KernelWords, want)
	}
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	c := matrix.NewDense(m, m)
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	if arena.Live() != 0 {
		t.Fatalf("call leaked %d arena words", arena.Live())
	}
	if arena.Peak() != plan.KernelWords {
		t.Fatalf("kernel arena peak %d, plan kernel words %d", arena.Peak(), plan.KernelWords)
	}
}

// bandPanicKernel threads each leaf's product as one task per column band
// of C on the runtime it is handed, and fails in its nth band. It serves
// leaves only — one coefficient-1 term per operand and one destination,
// full extents — so the test runs it with FusedOff.
type bandPanicKernel struct {
	blas.NaiveKernel
	calls *atomic.Int64
	nth   int64
}

func (bandPanicKernel) FusedDestLimit() int { return 2 }

func (k bandPanicKernel) FusedMulAddTasks(sub sched.Submitter, m, n, kk int, alpha, beta float64, prods []kernel.Product) {
	p := prods[0]
	a, b, c := p.A.Terms[0].Data, p.B.Terms[0].Data, p.Dests[0]
	matrix.Lin(&matrix.Dense{Rows: c.Rows, Cols: c.Cols, Stride: c.Ld, Data: c.Data}, matrix.Term{G: beta, Dst: true})
	ta, tb := blas.NoTrans, blas.NoTrans
	if p.A.Trans {
		ta = blas.Trans
	}
	if p.B.Trans {
		tb = blas.Trans
	}
	d := sched.NewDAG()
	w := sub.Workers()
	for i := range w {
		lo, hi := i*n/w, (i+1)*n/w
		if lo == hi {
			continue
		}
		off := lo * p.B.Ld
		if p.B.Trans {
			off = lo
		}
		d.Add(func(*sched.Worker) {
			if k.calls.Add(1) == k.nth {
				panic("leaf kernel failure")
			}
			k.NaiveKernel.MulAdd(ta, tb, m, hi-lo, kk, alpha, a, p.A.Ld, b[off:], p.B.Ld, c.Data[lo*c.Ld:], c.Ld)
		})
	}
	_ = sub.Run(context.Background(), d)
}

// TestDGEFMMTaskPanicReachesCaller: a leaf kernel panicking inside a
// runtime task must surface as a panic in DGEFMM's caller (not kill the
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
		cfg := &Config{Kernel: bandPanicKernel{calls: new(atomic.Int64), nth: 5},
			Criterion: Simple{Tau: 8}, Fused: FusedOff, Sched: rt, Tracker: tr}
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
		ok := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: rt}
		want := refMul(blas.NoTrans, blas.NoTrans, 1, a, b, 0, matrix.NewDense(m, m))
		DGEFMM(ok, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		if d := matrix.MaxAbsDiff(c, want); d > tol(m) {
			t.Fatalf("workers=%d: call after the panic off by %g", rt.Workers(), d)
		}
	}
}
