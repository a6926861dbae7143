package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (each regenerates the experiment at reduced "quick" scale; run
// cmd/dgefmm-bench for the full-scale console reports), plus direct
// microbenchmarks of the kernels and of DGEFMM itself.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/strassen"
)

var quickScale = experiments.Scale{Quick: true}

// ---- Direct multiply benchmarks --------------------------------------

func benchSizes() []int { return []int{128, 256, 512} }

func BenchmarkDGEMMKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range blas.KernelNames() {
		kern := blas.KernelByName(name)
		for _, m := range benchSizes() {
			a := NewRandomMatrix(m, m, rng)
			bb := NewRandomMatrix(m, m, rng)
			c := NewMatrix(m, m)
			b.Run(fmt.Sprintf("%s/m=%d", name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					blas.DgemmKernel(kern, blas.NoTrans, blas.NoTrans, m, m, m, 1,
						a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
				}
				b.SetBytes(int64(2 * m * m * m)) // flops as "bytes": MFLOPS ∝ MB/s
			})
		}
	}
}

func BenchmarkDGEFMM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range benchSizes() {
		a := NewRandomMatrix(m, m, rng)
		bb := NewRandomMatrix(m, m, rng)
		c := NewMatrix(m, m)
		for _, beta := range []float64{0, 0.5} {
			b.Run(fmt.Sprintf("m=%d/beta=%v", m, beta), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					DGEFMM(nil, NoTrans, NoTrans, m, m, m, 1,
						a.Data, a.Stride, bb.Data, bb.Stride, beta, c.Data, c.Stride)
				}
				b.SetBytes(int64(2 * m * m * m))
			})
		}
	}
}

func BenchmarkDGEFMMOddSizes(b *testing.B) {
	// The dynamic-peeling worst case: odd at every recursion level.
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{127, 255, 511} {
		a := NewRandomMatrix(m, m, rng)
		bb := NewRandomMatrix(m, m, rng)
		c := NewMatrix(m, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DGEFMM(nil, NoTrans, NoTrans, m, m, m, 1,
					a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
			}
			b.SetBytes(int64(2 * m * m * m))
		})
	}
}

func BenchmarkDGEFMMRectangular(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][3]int{{64, 512, 512}, {512, 64, 512}, {512, 512, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := NewRandomMatrix(m, k, rng)
		bb := NewRandomMatrix(k, n, rng)
		c := NewMatrix(m, n)
		b.Run(fmt.Sprintf("m=%d,k=%d,n=%d", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DGEFMM(nil, NoTrans, NoTrans, m, n, k, 1,
					a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
			}
			b.SetBytes(int64(2 * m * k * n))
		})
	}
}

// ---- One benchmark per paper table/figure -----------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard, 128, quickScale)
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure2(io.Discard, "blocked", 0, 0, 0, quickScale)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard, quickScale)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(io.Discard, quickScale)
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table4(io.Discard, 4, quickScale)
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table5(io.Discard, 2, quickScale)
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure3(io.Discard, quickScale)
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure4(io.Discard, quickScale)
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure5(io.Discard, quickScale)
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure6(io.Discard, 4, quickScale)
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table6(io.Discard, 96, quickScale)
	}
}

func BenchmarkModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Model(io.Discard, quickScale)
	}
}

// ---- Ablation benchmarks (DESIGN.md §5) -------------------------------

func BenchmarkAblationSchedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationSchedules(io.Discard, quickScale)
	}
}

func BenchmarkAblationOddHandling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationOddHandling(io.Discard, quickScale)
	}
}

func BenchmarkAblationVariant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationVariant(io.Discard, quickScale)
	}
}

func BenchmarkAblationCutoffs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationCutoffs(io.Discard, quickScale)
	}
}

func BenchmarkKernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationKernels(io.Discard, quickScale)
	}
}

func BenchmarkAblationPeeling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationPeeling(io.Discard, quickScale)
	}
}

func BenchmarkAblationParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationParallel(io.Discard, quickScale)
	}
}

// ---- Extension benchmarks (DESIGN.md §7) -------------------------------

func BenchmarkLU(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	n := 512
	a := NewRandomMatrix(n, n, rng)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	for _, eng := range []struct {
		name string
		opts *LUOptions
	}{
		{"dgemm", &LUOptions{BlockSize: 128}},
		{"dgefmm", &LUOptions{BlockSize: 128, Mul: StrassenEigenMultiplier{}}},
	} {
		b.Run(eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FactorLU(a, eng.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(2 * n * n * n / 3)) // LU flops
		})
	}
}

func BenchmarkZGEFMM(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 192
	za := NewZMatrix(n, n)
	zb := NewZMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			za.Set(i, j, complex(rng.Float64(), rng.Float64()))
			zb.Set(i, j, complex(rng.Float64(), rng.Float64()))
		}
	}
	zc := NewZMatrix(n, n)
	b.Run("zgemm-4m", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ZGEMM(ZNoTrans, ZNoTrans, n, n, n, 1, za, zb, 0, zc)
		}
	})
	b.Run("zgefmm-3m", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ZGEFMM(nil, ZNoTrans, ZNoTrans, n, n, n, 1, za, zb, 0, zc)
		}
	})
}

func BenchmarkParallelStrassen(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m := 512
	a := NewRandomMatrix(m, m, rng)
	bb := NewRandomMatrix(m, m, rng)
	c := NewMatrix(m, m)
	for _, par := range []int{0, 2, 4, 7} {
		cfg := DefaultConfig(nil)
		if par > 0 {
			rt := sched.New(par, 1)
			defer rt.Close()
			cfg.Sched = rt
		}
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DGEFMM(cfg, NoTrans, NoTrans, m, m, m, 1,
					a.Data, a.Stride, bb.Data, bb.Stride, 0, c.Data, c.Stride)
			}
			b.SetBytes(int64(2 * m * m * m))
		})
	}
}

// ---- Schedule-level microbenchmarks ------------------------------------

func BenchmarkSchedules(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := 256
	a := NewRandomMatrix(m, m, rng)
	bb := NewRandomMatrix(m, m, rng)
	c := NewMatrix(m, m)
	for _, cfg := range []struct {
		name  string
		sched strassen.Schedule
		beta  float64
	}{
		{"strassen1/beta=0", strassen.ScheduleStrassen1, 0},
		{"strassen2/beta=0", strassen.ScheduleStrassen2, 0},
		{"strassen2/beta=1", strassen.ScheduleStrassen2, 1},
		{"original/beta=0", strassen.ScheduleOriginal, 0},
	} {
		conf := DefaultConfig(nil)
		conf.Schedule = cfg.sched
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DGEFMM(conf, NoTrans, NoTrans, m, m, m, 1,
					a.Data, a.Stride, bb.Data, bb.Stride, cfg.beta, c.Data, c.Stride)
			}
			b.SetBytes(int64(2 * m * m * m))
		})
	}
}

func BenchmarkStability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Stability(io.Discard, 0, 0, quickScale)
	}
}
