package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blas"
	"repro/internal/memtrack"
	"repro/internal/strassen"
)

// fusedSuite measures the fused Winograd driver against the plain SIMD
// kernel at the orders where the crossover argument lives (n ≥ 1024, one
// materialized-or-fused recursion level in play under the calibrated
// "+fused" parameters). The host drifts several percent between
// measurement windows, so each rep times the two arms back to back and the
// gated ratio is the median of per-rep ratios — drift hits both arms of a
// rep equally and cancels, where a ratio of two independently measured
// medians would inherit it.
func fusedSuite(reps int) map[string]float64 {
	out := map[string]float64{}
	for _, n := range []int{1024, 1536} {
		a, b, c := randomSquare(n, 109)
		kern := blas.KernelByName("simd")
		cfg := strassen.DefaultConfig(kern)
		cfg.Fused = strassen.FusedOn
		// Steady-state comparison: the tracker lets repeated calls reuse the
		// materialized level's temporaries the same way the kernel arm
		// reuses its packing arena (the calibration sweeps do the same).
		cfg.Tracker = memtrack.New()
		flops := 2 * float64(n) * float64(n) * float64(n)
		gemm := func() float64 {
			start := time.Now()
			kern.MulAdd(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, c, n)
			return time.Since(start).Seconds()
		}
		fused := func() float64 {
			start := time.Now()
			strassen.DGEFMM(cfg, blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
			return time.Since(start).Seconds()
		}
		gemm()
		fused() // warm caches, arena and plan
		gemmS := make([]float64, 0, reps)
		fusedS := make([]float64, 0, reps)
		ratios := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			tg, tf := gemm(), fused()
			gemmS = append(gemmS, flops/tg/1e9)
			fusedS = append(fusedS, flops/tf/1e9)
			ratios = append(ratios, tg/tf)
		}
		for name, vals := range map[string][]float64{
			fmt.Sprintf("kernel.simd.%d.gflops", n):    gemmS,
			fmt.Sprintf("fused.multiply.%d.gflops", n): fusedS,
			fmt.Sprintf("fused.vs_kernel.%d.ratio", n): ratios,
		} {
			recordNoise(name, vals)
			out[name] = medianOf(vals)
		}
	}
	return out
}

func medianOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
