package strassen

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/sched"
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
			par := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: rt4}
			DGEFMM(seq, blas.NoTrans, blas.NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, c1.Data, c1.Stride)
			DGEFMM(par, blas.NoTrans, blas.NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, c2.Data, c2.Stride)
			if !c1.Equal(c2) {
				t.Fatalf("dims=%v β=%v: parallel differs from sequential by %g", dims, beta, matrix.MaxAbsDiff(c1, c2))
			}
		}
	}
}

func TestParallelCorrectAgainstReference(t *testing.T) {
	_, rt4 := testRuntimes()
	rng := rand.New(rand.NewSource(402))
	cfg := &Config{Kernel: &blas.BlockedKernel{}, Criterion: Simple{Tau: 16}, Sched: rt4}
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
	// The shared tracker must see every allocation of a runtime call and
	// end balanced, at the workspace PlanFor derives — the sequential
	// call's, on one worker and on four: the products run one after
	// another on every runtime, so the peak is structural.
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
	want := PlanFor(&Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}}, m, m, m, true).Words
	for _, rt := range []*sched.Runtime{w1, w4} {
		cfg := Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: rt}
		if planned := PlanFor(&cfg, m, m, m, true).Words; planned != want {
			t.Fatalf("workers=%d: planned %d words, sequential plan %d", rt.Workers(), planned, want)
		}
		if peak := run(cfg); peak != want {
			t.Errorf("workers=%d: peak %d, planned %d", rt.Workers(), peak, want)
		}
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
