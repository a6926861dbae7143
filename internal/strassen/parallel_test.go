package strassen

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrack"
)

func TestParallelMatchesSequential(t *testing.T) {
	_, rt4 := testRuntimes()
	rng := rand.New(rand.NewSource(401))
	for _, dims := range [][3]int{{64, 64, 64}, {65, 33, 97}, {128, 96, 80}} {
		m, k, n := dims[0], dims[1], dims[2]
		for _, beta := range []float64{0, 0.5} {
			a := matrix.NewRandom(m, k, rng)
			b := matrix.NewRandom(k, n, rng)
			c1 := matrix.NewRandom(m, n, rng)
			c2 := c1.Clone()

			seq := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}}
			par := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: rt4, SchedLevels: 2}
			DGEFMM(seq, blas.NoTrans, blas.NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, c1.Data, c1.Stride)
			DGEFMM(par, blas.NoTrans, blas.NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, c2.Data, c2.Stride)
			if d := matrix.MaxAbsDiff(c1, c2); d > tol(k) {
				t.Fatalf("dims=%v β=%v: parallel differs from sequential by %g", dims, beta, d)
			}
		}
	}
}

func TestParallelCorrectAgainstReference(t *testing.T) {
	_, rt4 := testRuntimes()
	rng := rand.New(rand.NewSource(402))
	cfg := &Config{Kernel: &blas.BlockedKernel{}, Criterion: Simple{Tau: 16}, Sched: rt4, SchedLevels: 3}
	for _, dims := range [][3]int{{96, 96, 96}, {67, 81, 75}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := matrix.NewRandom(m, k, rng)
		b := matrix.NewRandom(k, n, rng)
		c := matrix.NewRandom(m, n, rng)
		want := refMul(blas.NoTrans, blas.NoTrans, 2, a, b, 0.25, c)
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 2, a.Data, a.Stride, b.Data, b.Stride, 0.25, c.Data, c.Stride)
		if d := matrix.MaxAbsDiff(c, want); d > tol(k) {
			t.Fatalf("dims=%v: %g", dims, d)
		}
	}
}

func TestParallelTrackerBalanced(t *testing.T) {
	skipIfAlgoPinned(t)
	// The shared tracker must see every parallel worker's allocation and
	// end balanced, at the workspace PlanFor derives for a DAG level: its
	// lanes' buffers at m/2, plus one β=0 child subtree per product in
	// flight. How many children overlap depends on the worker count and on
	// timing, so the peak is pinned at both ends: it equals the plan on a
	// 1-worker runtime (children strictly one after another, exactly what
	// that run measures) and never exceeds the plan on a 4-worker runtime.
	rng := rand.New(rand.NewSource(403))
	m := 64
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	run := func(cfg Config) int64 {
		tr := memtrack.New()
		cfg.Tracker = tr
		c := matrix.NewDense(m, m)
		DGEFMM(&cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		if tr.Live() != 0 {
			t.Fatalf("parallel run leaked %d words", tr.Live())
		}
		return tr.Peak()
	}
	w1, w4 := testRuntimes()
	serial := Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: w1, SchedLevels: 1}
	lower := PlanFor(&serial, m, m, m, true).Words
	if got := run(serial); got != lower {
		t.Fatalf("one-lane peak %d, planned %d", got, lower)
	}
	four := Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: w4, SchedLevels: 1}
	upper := PlanFor(&four, m, m, m, true).Words
	if peak := run(four); peak < lower || peak > upper {
		t.Errorf("peak %d outside the planned range [%d, %d]", peak, lower, upper)
	}
}

func TestParallelKernelMatchesBase(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, tb := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		m, k, n := 48, 40, 130 // n large enough to split across workers
		rowsB, colsB := k, n
		if tb.IsTrans() {
			rowsB, colsB = n, k
		}
		a := matrix.NewRandom(m, k, rng)
		b := matrix.NewRandom(rowsB, colsB, rng)
		c1 := matrix.NewRandom(m, n, rng)
		c2 := c1.Clone()
		blas.DgemmKernel(&blas.BlockedKernel{}, blas.NoTrans, tb, m, n, k, 1.5,
			a.Data, a.Stride, b.Data, b.Stride, 0.5, c1.Data, c1.Stride)
		pk := &blas.ParallelKernel{Workers: 4, Base: &blas.BlockedKernel{}}
		blas.DgemmKernel(pk, blas.NoTrans, tb, m, n, k, 1.5,
			a.Data, a.Stride, b.Data, b.Stride, 0.5, c2.Data, c2.Stride)
		// Column-split parallelism performs identical scalar arithmetic per
		// element, so results are bit-identical.
		if !c1.Equal(c2) {
			t.Fatalf("tb=%c: parallel kernel differs from base", tb)
		}
	}
}

func TestParallelKernelDelegatesToTaskThreader(t *testing.T) {
	// A base that can thread its own MC loop (kernel.Packed) runs through
	// MulAddTasks on the shared runtime; results stay bit-for-bit the
	// base's (MulAddTasks preserves block edges and KC order).
	rng := rand.New(rand.NewSource(407))
	m, k, n := 96, 48, 64
	a := matrix.NewRandom(m, k, rng)
	b := matrix.NewRandom(k, n, rng)
	c1 := matrix.NewRandom(m, n, rng)
	c2 := c1.Clone()
	base := &kernel.Packed{MC: 16, KC: 12, NC: 20}
	blas.DgemmKernel(base, blas.NoTrans, blas.NoTrans, m, n, k, 1.5,
		a.Data, a.Stride, b.Data, b.Stride, 0.5, c1.Data, c1.Stride)
	pk := &blas.ParallelKernel{Workers: 4, Base: &kernel.Packed{MC: 16, KC: 12, NC: 20}}
	blas.DgemmKernel(pk, blas.NoTrans, blas.NoTrans, m, n, k, 1.5,
		a.Data, a.Stride, b.Data, b.Stride, 0.5, c2.Data, c2.Stride)
	if !c1.Equal(c2) {
		t.Fatal("delegated parallel kernel differs from its base")
	}
}

func TestParallelKernelSmallNInline(t *testing.T) {
	// Below minParallelCols the kernel must not spawn and still be right.
	rng := rand.New(rand.NewSource(405))
	m, k, n := 20, 20, 8
	a := matrix.NewRandom(m, k, rng)
	b := matrix.NewRandom(k, n, rng)
	c1 := matrix.NewDense(m, n)
	c2 := matrix.NewDense(m, n)
	blas.DgemmKernel(blas.NaiveKernel{}, blas.NoTrans, blas.NoTrans, m, n, k, 1,
		a.Data, a.Stride, b.Data, b.Stride, 0, c1.Data, c1.Stride)
	pk := &blas.ParallelKernel{Workers: 8, Base: blas.NaiveKernel{}}
	blas.DgemmKernel(pk, blas.NoTrans, blas.NoTrans, m, n, k, 1,
		a.Data, a.Stride, b.Data, b.Stride, 0, c2.Data, c2.Stride)
	if !c1.Equal(c2) {
		t.Fatal("inline fallback differs")
	}
}

func TestCloneKernel(t *testing.T) {
	bk := &blas.BlockedKernel{MC: 32, KC: 32, NC: 32}
	clone := blas.CloneKernel(bk)
	if clone == blas.Kernel(bk) {
		t.Fatal("BlockedKernel must clone to a distinct instance")
	}
	if clone.Name() != "blocked" {
		t.Fatal("clone lost identity")
	}
	nk := blas.NaiveKernel{}
	if blas.CloneKernel(nk) != blas.Kernel(nk) {
		t.Fatal("stateless kernels may be shared")
	}
	if blas.CloneKernel(nil) == nil {
		t.Fatal("nil should clone DefaultKernel")
	}
}

func TestParallelConcurrentDGEFMMCalls(t *testing.T) {
	// Distinct DGEFMM invocations from multiple goroutines must be safe
	// when each has its own config (the documented usage).
	rng := rand.New(rand.NewSource(406))
	m := 48
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	want := refMul(blas.NoTrans, blas.NoTrans, 1, a, b, 0, matrix.NewDense(m, m))
	var wg sync.WaitGroup
	errs := make([]float64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := &Config{Kernel: &blas.BlockedKernel{}, Criterion: Simple{Tau: 8}}
			c := matrix.NewDense(m, m)
			DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
			errs[g] = matrix.MaxAbsDiff(c, want)
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e > tol(m) {
			t.Fatalf("goroutine %d: error %g", g, e)
		}
	}
}
