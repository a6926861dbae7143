package batch

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/strassen"
)

// caseSpec describes one call of a test batch.
type caseSpec struct {
	m, n, k        int
	transA, transB blas.Transpose
	alpha, beta    float64
}

// buildCalls materializes a spec list twice: once as batch Calls writing
// into cBatch, once as the matching operands for a sequential reference
// loop writing into cSeq. A and B are shared between the two paths (they
// are only read); each C starts from the same random contents.
func buildCalls(specs []caseSpec, rng *rand.Rand) (calls []Call, seq []Call, cBatch, cSeq []*matrix.Dense) {
	for _, s := range specs {
		rowsA, colsA := s.m, s.k
		if s.transA.IsTrans() {
			rowsA, colsA = s.k, s.m
		}
		rowsB, colsB := s.k, s.n
		if s.transB.IsTrans() {
			rowsB, colsB = s.n, s.k
		}
		a := matrix.NewRandom(rowsA, colsA, rng)
		b := matrix.NewRandom(rowsB, colsB, rng)
		c0 := matrix.NewRandom(s.m, s.n, rng)
		cb, cs := c0.Clone(), c0.Clone()
		calls = append(calls, NewCall(cb, s.transA, s.transB, s.alpha, a, b, s.beta))
		seq = append(seq, NewCall(cs, s.transA, s.transB, s.alpha, a, b, s.beta))
		cBatch = append(cBatch, cb)
		cSeq = append(cSeq, cs)
	}
	return
}

// runSequential executes the reference loop: one Multiply-equivalent
// DGEFMM call after another, same base config, fresh workspace each call —
// the naive usage batching replaces.
func runSequential(cfg *strassen.Config, calls []Call) {
	for i := range calls {
		c := &calls[i]
		run := *cfg
		strassen.DGEFMM(&run, c.TransA, c.TransB, c.M, c.N, c.K, c.Alpha,
			c.A, c.Lda, c.B, c.Ldb, c.Beta, c.C, c.Ldc)
	}
}

// mixedSpecs is the standard mixed batch: square/rectangular, even/odd,
// all four op combinations, β = 0 and β ≠ 0 in one batch (so both
// schedules and both plan classes are exercised side by side).
func mixedSpecs() []caseSpec {
	return []caseSpec{
		{64, 64, 64, blas.NoTrans, blas.NoTrans, 1, 0},
		{64, 64, 64, blas.NoTrans, blas.NoTrans, 1, 0}, // same bucket again
		{65, 33, 97, blas.NoTrans, blas.NoTrans, 1.5, 0.5},
		{48, 96, 24, blas.Trans, blas.NoTrans, -0.75, 1},
		{30, 70, 50, blas.NoTrans, blas.Trans, 2, 0},
		{57, 57, 57, blas.Trans, blas.Trans, 0.5, -1.25},
		{64, 64, 64, blas.NoTrans, blas.NoTrans, 1, 0.25}, // β≠0 twin of bucket 1
		{1, 7, 3, blas.NoTrans, blas.NoTrans, 3, 0},       // degenerate small
	}
}

func naiveConfig() *strassen.Config {
	return &strassen.Config{Kernel: blas.NaiveKernel{}, Criterion: strassen.Simple{Tau: 8}}
}

// TestBatchedMatchesSequentialBitForBit is the equivalence contract:
// BatchedMultiply must produce results bit-for-bit identical to the
// sequential loop of single Multiply calls for the same configs — mixed
// shapes in one batch, β = 0 vs β ≠ 0 schedule selection, both kernels,
// an explicit criterion and the calibrated row, one and several workers.
func TestBatchedMatchesSequentialBitForBit(t *testing.T) {
	kernels := map[string]blas.Kernel{
		"naive":   blas.NaiveKernel{},
		"blocked": blas.DefaultKernel,
	}
	for kname, kern := range kernels {
		for _, crit := range []strassen.Criterion{strassen.Simple{Tau: 16}, nil} {
			name := kname
			if crit == nil {
				name += "-calibrated"
			}
			for _, workers := range []int{1, 3} {
				t.Run(name+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
					cfg := &strassen.Config{Kernel: kern, Criterion: crit}
					rng := rand.New(rand.NewSource(7))
					calls, seq, cBatch, cSeq := buildCalls(mixedSpecs(), rng)

					runSequential(cfg, seq)

					pool := NewPool(&Options{Workers: workers, Config: cfg})
					defer pool.Close()
					if err := pool.Execute(calls); err != nil {
						t.Fatalf("Execute: %v", err)
					}

					for i := range cBatch {
						if cBatch[i].Rows != cSeq[i].Rows || cBatch[i].Cols != cSeq[i].Cols {
							t.Fatalf("call %d: shape mismatch", i)
						}
						for j := 0; j < cBatch[i].Cols; j++ {
							for r := 0; r < cBatch[i].Rows; r++ {
								if cBatch[i].At(r, j) != cSeq[i].At(r, j) {
									t.Fatalf("call %d: batched differs from sequential at (%d,%d): %v vs %v",
										i, r, j, cBatch[i].At(r, j), cSeq[i].At(r, j))
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestBatchedRepeatedBatchesStayIdentical re-runs the same batch through a
// warm pool: arena reuse must not perturb results (recycled scratch is
// re-zeroed), so run 1 and run 3 agree bitwise.
func TestBatchedRepeatedBatchesStayIdentical(t *testing.T) {
	cfg := naiveConfig()
	rng := rand.New(rand.NewSource(11))
	calls, seq, cBatch, cSeq := buildCalls(mixedSpecs(), rng)
	pool := NewPool(&Options{Workers: 2, Config: cfg})
	defer pool.Close()

	runSequential(cfg, seq)
	for round := 0; round < 3; round++ {
		// β ≠ 0 calls accumulate into C, so reset C to the reference start
		// state before every round: copy from the sequential twin's
		// pre-run contents is gone, so rebuild instead.
		calls2, _, cBatch2, _ := buildCalls(mixedSpecs(), rand.New(rand.NewSource(11)))
		if err := pool.Execute(calls2); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range cBatch2 {
			for j := 0; j < cBatch2[i].Cols; j++ {
				for r := 0; r < cBatch2[i].Rows; r++ {
					if cBatch2[i].At(r, j) != cSeq[i].At(r, j) {
						t.Fatalf("round %d call %d: warm-pool result differs at (%d,%d)", round, i, r, j)
					}
				}
			}
		}
	}
	_ = calls
	_ = cBatch
}

// TestPoolConcurrentBatches hammers one pool from several submitting
// goroutines with overlapping (shared-input) batches — the race-detector
// test for arena reuse; CI runs it under -race in the short suite.
func TestPoolConcurrentBatches(t *testing.T) {
	cfg := naiveConfig()
	pool := NewPool(&Options{Workers: 4, Config: cfg})
	defer pool.Close()

	// Shared inputs: every goroutine's batch reads the same A and B.
	rng := rand.New(rand.NewSource(21))
	const m, k, n = 65, 48, 33
	a := matrix.NewRandom(m, k, rng)
	b := matrix.NewRandom(k, n, rng)
	want := matrix.NewDense(m, n)
	strassen.Multiply(cfg, want, blas.NoTrans, blas.NoTrans, 1, a, b, 0)

	const submitters = 6
	const rounds = 3
	errs := make(chan error, submitters)
	outs := make([][]*matrix.Dense, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				var calls []Call
				var cs []*matrix.Dense
				for i := 0; i < 4; i++ {
					c := matrix.NewDense(m, n)
					calls = append(calls, NewCall(c, blas.NoTrans, blas.NoTrans, 1, a, b, 0))
					cs = append(cs, c)
				}
				if err := pool.Execute(calls); err != nil {
					errs <- err
					return
				}
				outs[g] = cs
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g, cs := range outs {
		for i, c := range cs {
			if d := matrix.MaxAbsDiff(c, want); d != 0 {
				t.Fatalf("goroutine %d call %d: concurrent result differs by %g", g, i, d)
			}
		}
	}
	if s := pool.Stats(); s.Calls != submitters*rounds*4 {
		t.Fatalf("pool saw %d calls, want %d", s.Calls, submitters*rounds*4)
	}
}

// TestArenaZeroAllocSteadyState is the arena contract: after the first
// batch warms a worker's free lists, later same-shape batches perform zero
// fresh workspace allocations — the Alloc/Free cycle itself is
// allocation-free (AllocsPerRun == 0) and the arena's fresh-alloc counter
// stops moving while its reuse counter keeps climbing.
func TestArenaZeroAllocSteadyState(t *testing.T) {
	cfg := naiveConfig()
	pool := NewPool(&Options{Workers: 1, Config: cfg})
	defer pool.Close()

	makeBatch := func() []Call {
		rng := rand.New(rand.NewSource(31))
		calls, _, _, _ := buildCalls([]caseSpec{
			{64, 64, 64, blas.NoTrans, blas.NoTrans, 1, 0},
			{65, 33, 97, blas.NoTrans, blas.NoTrans, 1, 0.5},
			{64, 64, 64, blas.NoTrans, blas.NoTrans, 1, 0},
		}, rng)
		return calls
	}

	// Warmup: first batch populates plans and the worker's free lists.
	if err := pool.Execute(makeBatch()); err != nil {
		t.Fatal(err)
	}
	warm := pool.Stats()
	if len(warm.Arenas) != 1 {
		t.Fatalf("want 1 arena, got %d", len(warm.Arenas))
	}
	if warm.Arenas[0].Allocs == 0 {
		t.Fatal("warmup performed no arena allocations — arena not in the path")
	}

	// Steady state: three more identical batches.
	for i := 0; i < 3; i++ {
		if err := pool.Execute(makeBatch()); err != nil {
			t.Fatal(err)
		}
	}
	steady := pool.Stats()
	if steady.Arenas[0].Allocs != warm.Arenas[0].Allocs {
		t.Errorf("arena allocated fresh scratch after warmup: %d → %d fresh allocs",
			warm.Arenas[0].Allocs, steady.Arenas[0].Allocs)
	}
	if steady.Arenas[0].Reused <= warm.Arenas[0].Reused {
		t.Errorf("arena reuse did not grow in steady state: %d → %d",
			warm.Arenas[0].Reused, steady.Arenas[0].Reused)
	}
	if steady.Arenas[0].Live != 0 {
		t.Errorf("arena leak: %d words live after batches", steady.Arenas[0].Live)
	}

	// The Alloc/Free cycle on a warmed arena is itself allocation-free:
	// this is the testing.AllocsPerRun == 0 acceptance gate on the arena
	// path.
	tr := memtrack.New()
	sizes := []int{64 * 64, 32 * 32, 16 * 16, 33 * 49}
	for _, s := range sizes { // warm the free lists
		tr.Free(tr.Alloc(s))
	}
	allocs := testing.AllocsPerRun(100, func() {
		b1 := tr.Alloc(sizes[0])
		b2 := tr.Alloc(sizes[1])
		b3 := tr.Alloc(sizes[3])
		tr.Free(b3)
		tr.Free(b2)
		tr.Free(b1)
	})
	if allocs != 0 {
		t.Errorf("warmed arena Alloc/Free cycle allocates: AllocsPerRun = %v, want 0", allocs)
	}
}

// TestPerWorkerArenaWithinPaperBound asserts the paper's Table 1 bounds
// hold for the batched arena path per worker, not per batch: every worker
// arena's peak is within the strassen.WorkspaceBound of the largest shape
// class it served, no matter how many calls the batch held.
func TestPerWorkerArenaWithinPaperBound(t *testing.T) {
	if sel := (&strassen.Config{}).AlgoSelection(); sel != "default" {
		t.Skipf("DGEFMM_ALGO pins %q; this test asserts the default Winograd structure", sel)
	}
	const m = 96
	mk := func(beta float64, count int) []Call {
		rng := rand.New(rand.NewSource(41))
		var specs []caseSpec
		for i := 0; i < count; i++ {
			specs = append(specs, caseSpec{m, m, m, blas.NoTrans, blas.NoTrans, 1, beta})
		}
		calls, _, _, _ := buildCalls(specs, rng)
		return calls
	}
	for _, tc := range []struct {
		name  string
		beta  float64
		bound int64
	}{
		{"beta0/2m2over3", 0, strassen.WorkspaceBound(strassen.ScheduleAuto, m, m, m, true)},
		{"betaN/m2", 0.5, strassen.WorkspaceBound(strassen.ScheduleAuto, m, m, m, false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := &strassen.Config{Kernel: blas.NaiveKernel{}, Criterion: strassen.Always{}, MaxDepth: 6}
			pool := NewPool(&Options{Workers: 3, Config: cfg})
			defer pool.Close()
			if err := pool.Execute(mk(tc.beta, 24)); err != nil {
				t.Fatal(err)
			}
			s := pool.Stats()
			if tc.beta == 0 {
				if want := int64(2*m*m) / 3; tc.bound != want {
					t.Fatalf("β=0 bound = %d, want 2m²/3 = %d", tc.bound, want)
				}
			} else if want := int64(m * m); tc.bound != want {
				t.Fatalf("β≠0 bound = %d, want m² = %d", tc.bound, want)
			}
			for i, a := range s.Arenas {
				if a.Peak > tc.bound {
					t.Errorf("worker %d arena peak %d exceeds per-worker paper bound %d", i, a.Peak, tc.bound)
				}
			}
			if s.PlanWords > tc.bound {
				t.Errorf("plan words %d exceed bound %d", s.PlanWords, tc.bound)
			}
		})
	}
}

// TestPoolErrorPropagation: an invalid call reports an error (not a crash)
// and the pool keeps serving afterwards.
func TestPoolErrorPropagation(t *testing.T) {
	pool := NewPool(&Options{Workers: 2, Config: naiveConfig()})
	defer pool.Close()
	bad := Call{
		TransA: blas.NoTrans, TransB: blas.NoTrans,
		M: 8, N: 8, K: 8, Alpha: 1,
		A: make([]float64, 64), Lda: 8,
		B: make([]float64, 64), Ldb: 8,
		C: make([]float64, 8), Ldc: 1, // ldc too small: DGEMM argument error
	}
	err := pool.Execute([]Call{bad})
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("want argument-error propagation, got %v", err)
	}
	// Pool still works.
	rng := rand.New(rand.NewSource(51))
	calls, seq, cb, cs := buildCalls([]caseSpec{{16, 16, 16, blas.NoTrans, blas.NoTrans, 1, 0}}, rng)
	runSequential(naiveConfig(), seq)
	if err := pool.Execute(calls); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(cb[0], cs[0]); d != 0 {
		t.Fatalf("post-error call differs by %g", d)
	}
	if err := pool.Execute(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	pool.Close()
	if err := pool.Execute(calls); err == nil {
		t.Fatal("Execute on closed pool should error")
	}
}

// TestMultiplyConvenienceAndCollector covers the one-shot form plus the
// obs wiring: queue gauge, call counter, arena-reuse counter and
// per-bucket histograms all appear in the collector's snapshot.
func TestMultiplyConvenienceAndCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	calls, seq, cb, cs := buildCalls(mixedSpecs(), rng)
	cfg := naiveConfig()
	runSequential(cfg, seq)
	if err := Multiply(cfg, calls); err != nil {
		t.Fatal(err)
	}
	for i := range cb {
		if d := matrix.MaxAbsDiff(cb[i], cs[i]); d != 0 {
			t.Fatalf("call %d differs by %g", i, d)
		}
	}

	col := obs.NewCollector()
	pool := NewPool(&Options{Workers: 2, Config: cfg, Collector: col})
	defer pool.Close()
	calls2, _, _, _ := buildCalls(mixedSpecs(), rand.New(rand.NewSource(61)))
	for i := 0; i < 2; i++ {
		calls3, _, _, _ := buildCalls(mixedSpecs(), rand.New(rand.NewSource(61)))
		if err := pool.Execute(calls3); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Execute(calls2); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if got := snap.Metrics.Counters["batch.calls"]; got != int64(3*len(calls2)) {
		t.Errorf("batch.calls = %d, want %d", got, 3*len(calls2))
	}
	if snap.Metrics.Counters["batch.arena.reuses"] == 0 {
		t.Error("arena-reuse counter did not move across repeated batches")
	}
	if _, ok := snap.Metrics.Gauges["batch.queue_depth"]; !ok {
		t.Error("queue-depth gauge missing")
	}
	var bucketHists int
	for name, h := range snap.Metrics.Histograms {
		if strings.HasPrefix(name, "batch.bucket.") {
			bucketHists++
			if h.Count == 0 {
				t.Errorf("bucket histogram %s has no observations", name)
			}
		}
	}
	if bucketHists < 4 {
		t.Errorf("want ≥4 per-bucket latency histograms, got %d", bucketHists)
	}
	if snap.Memory.Peak == 0 {
		t.Error("worker arenas not bridged into collector snapshot")
	}
}

func TestPoolSchedRoutedNoOversubscription(t *testing.T) {
	// Regression for the core-oversubscription bug: a pool with more
	// workers than the attached runtime must not run more strassen tasks
	// concurrently than the runtime has workers. Routed pool workers are
	// pure submitters; the runtime's worker count is the structural cap,
	// which Stats().MaxRunning records as a high-water mark.
	rt := sched.New(2, 11)
	defer rt.Close()
	mkCfg := func() *strassen.Config {
		return &strassen.Config{Kernel: blas.NaiveKernel{}, Criterion: strassen.Simple{Tau: 8}}
	}
	pool := NewPool(&Options{Workers: 8, Config: mkCfg(), Sched: rt})
	defer pool.Close()

	rng := rand.New(rand.NewSource(81))
	specs := make([]caseSpec, 12)
	for i := range specs {
		specs[i] = caseSpec{m: 64, n: 64, k: 64, transA: blas.NoTrans, transB: blas.NoTrans, alpha: 1, beta: 0.5}
	}
	calls, seq, cb, cs := buildCalls(specs, rng)
	runSequential(mkCfg(), seq)
	if err := pool.Execute(calls); err != nil {
		t.Fatal(err)
	}
	for i := range cb {
		if d := matrix.MaxAbsDiff(cb[i], cs[i]); d > 1e-8 {
			t.Fatalf("call %d: routed result differs from sequential by %g", i, d)
		}
	}
	st := rt.Stats()
	if st.TasksRun == 0 {
		t.Fatal("no tasks reached the runtime: calls were not routed")
	}
	if st.MaxRunning > int64(rt.Workers()) {
		t.Fatalf("%d tasks ran concurrently on a %d-worker runtime", st.MaxRunning, rt.Workers())
	}
}

// cancelKernel wraps a leaf kernel and, once armed, cancels the stored
// context on its Nth MulAdd call — a deterministic way to land a
// cancellation in the middle of a running multiply (the engine polls the
// context between products, so the call must abort shortly after).
type cancelKernel struct {
	blas.Kernel
	calls  atomic.Int64
	armed  atomic.Bool
	after  int64
	cancel atomic.Value // context.CancelFunc
}

func (k *cancelKernel) MulAdd(transA, transB blas.Transpose, m, n, kk int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if seen := k.calls.Add(1); k.armed.Load() && seen == k.after {
		k.cancel.Load().(context.CancelFunc)()
	}
	k.Kernel.MulAdd(transA, transB, m, n, kk, alpha, a, lda, b, ldb, c, ldc)
}

func TestExecuteEachCancelMidExecution(t *testing.T) {
	kern := &cancelKernel{Kernel: blas.NaiveKernel{}}
	cfg := &strassen.Config{Kernel: kern, Criterion: strassen.Simple{Tau: 8}}
	p := NewPool(&Options{Workers: 1, Config: cfg})
	defer p.Close()

	rng := rand.New(rand.NewSource(82))
	mk := func() []Call {
		calls, _, _, _ := buildCalls([]caseSpec{
			{m: 64, n: 64, k: 64, transA: blas.NoTrans, transB: blas.NoTrans, alpha: 1},
		}, rng)
		return calls
	}
	// Run 1 warms the shape bucket; run 2 runs against the warm plan, so
	// its delta is the deterministic leaf-multiply count of one call.
	if errs := p.ExecuteEach(mk()); errs[0] != nil {
		t.Fatal(errs[0])
	}
	before := kern.calls.Load()
	if errs := p.ExecuteEach(mk()); errs[0] != nil {
		t.Fatal(errs[0])
	}
	perCall := kern.calls.Load() - before
	if perCall < 2 {
		t.Fatalf("kernel saw %d leaf multiplies per call; cannot land mid-execution", perCall)
	}

	// Arm: cancel halfway through the next call's leaf multiplies, while
	// the call is running. The pool's admission check has already passed
	// by then, so this exercises the mid-execution polling path.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	kern.after = kern.calls.Load() + perCall/2
	kern.cancel.Store(cancel)
	kern.armed.Store(true)
	calls := mk()
	calls[0].Ctx = ctx
	errs := p.ExecuteEach(calls)
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("mid-execution cancel: err = %v, want context.Canceled", errs[0])
	}
}

// benchSetup builds the acceptance workload: a batch of 64 independent
// 512×512 β = 0 multiplies sharing A, each with its own B_i and C_i.
func benchSetup(calls, order int) (*strassen.Config, []Call) {
	rng := rand.New(rand.NewSource(2026))
	cfg := strassen.DefaultConfig(nil)
	a := matrix.NewRandom(order, order, rng)
	out := make([]Call, calls)
	for i := range out {
		b := matrix.NewRandom(order, order, rng)
		c := matrix.NewDense(order, order)
		out[i] = NewCall(c, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
	}
	return cfg, out
}

// BenchmarkBatch compares a 64-call batch of 512×512 multiplies run as a
// sequential Multiply loop against the same batch through a warm Pool. The
// pool's speedup comes from inter-call parallelism (needs GOMAXPROCS > 1)
// plus arena and plan reuse; cmd/dgefmm-bench -batch records the same
// comparison with arena accounting into BENCH_PR2.json.
func BenchmarkBatch(b *testing.B) {
	const calls, order = 64, 512
	b.Run("loop", func(b *testing.B) {
		cfg, cs := benchSetup(calls, order)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSequential(cfg, cs)
		}
	})
	b.Run("pool", func(b *testing.B) {
		cfg, cs := benchSetup(calls, order)
		pool := NewPool(&Options{Config: cfg})
		defer pool.Close()
		if err := pool.Execute(cs); err != nil { // warm plans and arenas
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pool.Execute(cs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		warm := pool.Stats()
		if err := pool.Execute(cs); err != nil {
			b.Fatal(err)
		}
		if after := pool.Stats(); after.Arenas[0].Allocs != warm.Arenas[0].Allocs {
			b.Fatalf("steady-state batch allocated fresh workspace: %d → %d",
				warm.Arenas[0].Allocs, after.Arenas[0].Allocs)
		}
	})
}

func TestExecuteEachPerCallErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	specs := []caseSpec{
		{m: 24, n: 24, k: 24, transA: blas.NoTrans, transB: blas.NoTrans, alpha: 1},
		{m: 17, n: 9, k: 31, transA: blas.Trans, transB: blas.NoTrans, alpha: -2, beta: 0.5},
		{m: 24, n: 24, k: 24, transA: blas.NoTrans, transB: blas.NoTrans, alpha: 1},
	}
	calls, seq, cBatch, cSeq := buildCalls(specs, rng)
	// Poison the middle call: an inner-dimension mismatch panics inside
	// DGEFMM, which must surface as that call's error only.
	calls[1].K = calls[1].K + 1

	p := NewPool(&Options{Workers: 2})
	defer p.Close()
	errs := p.ExecuteEach(calls)
	if len(errs) != len(calls) {
		t.Fatalf("ExecuteEach returned %d errors for %d calls", len(errs), len(calls))
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy calls reported errors: %v, %v", errs[0], errs[2])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "failed") {
		t.Fatalf("poisoned call error = %v, want failure", errs[1])
	}

	cfg := strassen.DefaultConfig(nil)
	runSequential(cfg, []Call{seq[0], seq[2]})
	for _, i := range []int{0, 2} {
		if !cBatch[i].Equal(cSeq[i]) {
			t.Errorf("call %d: ExecuteEach result differs from sequential DGEFMM", i)
		}
	}
}

func TestExecuteEachContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	specs := []caseSpec{
		{m: 32, n: 32, k: 32, transA: blas.NoTrans, transB: blas.NoTrans, alpha: 1},
		{m: 32, n: 32, k: 32, transA: blas.NoTrans, transB: blas.NoTrans, alpha: 1},
	}
	calls, _, cBatch, _ := buildCalls(specs, rng)

	// An already-canceled context must skip its call (C untouched) and
	// report the context error; the sibling call still runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls[0].Ctx = ctx
	before := cBatch[0].Clone()

	p := NewPool(&Options{Workers: 1})
	defer p.Close()
	errs := p.ExecuteEach(calls)
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("canceled call error = %v, want context.Canceled", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("sibling call failed: %v", errs[1])
	}
	if !cBatch[0].Equal(before) {
		t.Error("canceled call mutated its output")
	}
}

func TestExecuteEachConcurrent(t *testing.T) {
	// Many goroutines race ExecuteEach on one pool (run under -race in CI):
	// per-call error slots must not interfere across batches.
	rng := rand.New(rand.NewSource(23))
	p := NewPool(&Options{Workers: 2})
	defer p.Close()

	const batches = 6
	var wg sync.WaitGroup
	for g := 0; g < batches; g++ {
		specs := []caseSpec{
			{m: 20 + g, n: 24, k: 16, transA: blas.NoTrans, transB: blas.NoTrans, alpha: 1},
			{m: 20 + g, n: 24, k: 16, transA: blas.NoTrans, transB: blas.NoTrans, alpha: 1, beta: 1},
		}
		calls, seq, cBatch, cSeq := buildCalls(specs, rng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs := p.ExecuteEach(calls)
			for i, err := range errs {
				if err != nil {
					t.Errorf("call %d failed: %v", i, err)
				}
			}
			runSequential(strassen.DefaultConfig(nil), seq)
			for i := range cBatch {
				if !cBatch[i].Equal(cSeq[i]) {
					t.Errorf("concurrent ExecuteEach result %d differs from sequential", i)
				}
			}
		}()
	}
	wg.Wait()
}

func TestExecuteEachClosedPool(t *testing.T) {
	p := NewPool(&Options{Workers: 1})
	p.Close()
	calls := make([]Call, 2)
	errs := p.ExecuteEach(calls)
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "closed pool") {
			t.Fatalf("errs[%d] = %v, want closed-pool error", i, err)
		}
	}
}
