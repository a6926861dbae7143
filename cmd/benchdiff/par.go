package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/blas"
	"repro/internal/sched"
	"repro/internal/strassen"
)

// The par.* family gates the multi-core task runtime: whole multiplies
// whose kernel calls and lin passes thread on a work-stealing runtime,
// plus the speedup-vs-workers curve. The family is measured only on hosts
// with more than one CPU and every metric is capability-gated behind
// "multicore" — on a single-core host the tasks serialize onto one worker
// and their numbers would measure scheduler overhead, not parallel
// execution (see EXPERIMENTS.md for the methodology and the 1-CPU
// caveats).

// parMultiplyGflops times a full DGEFMM call threaded on a dedicated
// workers-sized runtime (default configuration otherwise).
func parMultiplyGflops(name string, n, workers, reps int) float64 {
	rt := sched.New(workers, 211)
	defer rt.Close()
	a, b, c := randomSquare(n, 109)
	cfg := strassen.DefaultConfig(nil)
	cfg.Sched = rt
	flops := 2 * float64(n) * float64(n) * float64(n)
	run := func() {
		strassen.DGEFMM(cfg, blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
	}
	run() // warm plans, arenas and worker deques
	return medianNoise(name, reps, func() float64 {
		start := time.Now()
		run()
		return flops / time.Since(start).Seconds() / 1e9
	})
}

// parSuite measures the family: absolute parallel throughput at the host's
// full worker count, the one-worker runtime (the scheduler-overhead floor
// the speedups divide by), and the speedup at 2 and 4 workers where the
// host has them.
func parSuite(reps int) map[string]float64 {
	cores := runtime.GOMAXPROCS(0)
	m := map[string]float64{
		"par.multiply.256.gflops": parMultiplyGflops("par.multiply.256.gflops", 256, cores, reps),
		"par.multiply.512.gflops": parMultiplyGflops("par.multiply.512.gflops", 512, cores, reps),
		"par.scale.1.gflops":      parMultiplyGflops("par.scale.1.gflops", 512, 1, reps),
	}
	for _, w := range []int{2, 4} {
		if w > cores {
			break
		}
		name := fmt.Sprintf("par.scale.%d.speedup", w)
		m[name] = parMultiplyGflops(name+".gflops", 512, w, reps) / m["par.scale.1.gflops"]
	}
	return m
}
