package experiments

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/bench"
	"repro/internal/sched"
)

// ParallelRow is one worker count's measurement on the speedup-vs-workers
// sweep.
type ParallelRow struct {
	Workers int
	Seconds float64
	Speedup float64
}

// ParallelScaling measures the speedup-vs-workers curve of the task
// runtime — the multi-core experiment the paper's Section 5 leaves as
// future work. One DGEFMM per worker count w runs its column-banded lin
// passes (and, for the packed kernel, its threaded leaf loops) on a
// dedicated w-worker runtime; speedups are against the plain sequential engine, so the
// one-worker row exposes the scheduler's overhead floor. Worker counts
// double from 1 up to GOMAXPROCS (always including GOMAXPROCS); on a
// single-CPU host every row collapses to roughly the sequential time and
// the curve is meaningless except as an overhead check — see
// EXPERIMENTS.md for the methodology.
func ParallelScaling(w io.Writer, order int, sc Scale) []ParallelRow {
	kern := kernelOf("")
	if order <= 0 {
		order = sc.sq(512, 128)
	}
	seq := configFor(kern)
	tSeq := timeConfig(seq, order, 1, 0, 307)

	var counts []int
	max := runtime.GOMAXPROCS(0)
	for c := 1; c < max; c *= 2 {
		counts = append(counts, c)
	}
	counts = append(counts, max) // every doubling above is below max

	rows := make([]ParallelRow, 0, len(counts))
	tb := bench.NewTable("workers", "seconds", "speedup")
	tb.AddRow("seq", fmt.Sprintf("%.4f", tSeq), "1.00")
	for _, c := range counts {
		rt := sched.New(c, 307)
		cfg := configFor(kern)
		cfg.Sched = rt
		t := timeConfig(cfg, order, 1, 0, 307)
		rt.Close()
		rows = append(rows, ParallelRow{Workers: c, Seconds: t, Speedup: tSeq / t})
		tb.AddRow(c, fmt.Sprintf("%.4f", t), fmt.Sprintf("%.2f", tSeq/t))
	}
	fprintln(w, fmt.Sprintf("Parallel scaling: order %d, kernel %s, GOMAXPROCS %d",
		order, kern.Name(), max))
	_, _ = tb.WriteTo(w)
	return rows
}
