package experiments

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/strassen"
)

// AblationRow is one configuration's time on the ablation workload.
type AblationRow struct {
	Name    string
	Seconds float64
}

// timeConfig measures DGEFMM under cfg on an m×m problem.
func timeConfig(cfg *strassen.Config, m int, alpha, beta float64, seed int64) float64 {
	rng := rngFor(seed)
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	c := matrix.NewRandom(m, m, rng)
	return bench.Seconds(func() {
		strassen.DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, alpha,
			a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
	})
}

// AblationSchedules compares STRASSEN1 and STRASSEN2 in the β=0 case (the
// paper's observation: "our STRASSEN2 construction ... not only saves
// temporary memory but yields a code that has higher performance ... due to
// better locality of memory usage" — i.e. STRASSEN2 pays no time penalty
// despite its extra accumulation work).
func AblationSchedules(w io.Writer, sc Scale) []AblationRow {
	kern := kernelOf("blocked")
	m := sc.sq(4*strassen.DefaultParams("blocked").Tau, 2*strassen.DefaultParams("blocked").Tau)
	base := configFor(kern)
	rows := []AblationRow{}
	for _, cfg := range []struct {
		name  string
		sched strassen.Schedule
		beta  float64
	}{
		{"STRASSEN1, β=0", strassen.ScheduleStrassen1, 0},
		{"STRASSEN2, β=0", strassen.ScheduleStrassen2, 0},
		{"STRASSEN1(+copy), β=1/4", strassen.ScheduleStrassen1, 0.25},
		{"STRASSEN2, β=1/4", strassen.ScheduleStrassen2, 0.25},
	} {
		c := *base
		c.Schedule = cfg.sched
		rows = append(rows, AblationRow{Name: cfg.name, Seconds: timeConfig(&c, m, 1.0/3, cfg.beta, 281)})
	}
	printAblation(w, fmt.Sprintf("Ablation: computation schedules (order %d, blocked kernel)", m), rows)
	return rows
}

// AblationOddHandling compares dynamic peeling against dynamic and static
// padding on all-odd sizes — the paper's Section 3.3 design decision.
func AblationOddHandling(w io.Writer, sc Scale) []AblationRow {
	kern := kernelOf("blocked")
	tau := strassen.DefaultParams("blocked").Tau
	m := sc.sq(4*tau+3, 2*tau+1) // odd at every recursion level
	base := configFor(kern)
	rows := []AblationRow{}
	for _, odd := range []strassen.OddStrategy{strassen.OddPeel, strassen.OddPadDynamic, strassen.OddPadStatic} {
		c := *base
		c.Odd = odd
		rows = append(rows, AblationRow{Name: odd.String(), Seconds: timeConfig(&c, m, 1, 0, 283)})
	}
	printAblation(w, fmt.Sprintf("Ablation: odd-dimension handling (order %d, odd at every level)", m), rows)
	return rows
}

// AblationVariant compares Winograd's variant (15 adds) against Strassen's
// original construction (18 adds) — equations (4) vs (5) in time.
func AblationVariant(w io.Writer, sc Scale) []AblationRow {
	kern := kernelOf("blocked")
	m := sc.sq(4*strassen.DefaultParams("blocked").Tau, 2*strassen.DefaultParams("blocked").Tau)
	base := configFor(kern)
	rows := []AblationRow{}
	for _, cfg := range []struct {
		name  string
		sched strassen.Schedule
	}{
		{"Winograd (15 adds)", strassen.ScheduleAuto},
		{"Strassen original (18 adds)", strassen.ScheduleOriginal},
	} {
		c := *base
		c.Schedule = cfg.sched
		rows = append(rows, AblationRow{Name: cfg.name, Seconds: timeConfig(&c, m, 1, 0, 285)})
	}
	printAblation(w, fmt.Sprintf("Ablation: Winograd vs original variant (order %d)", m), rows)
	return rows
}

// AblationPeeling compares last- vs first-peeling — the paper's Section 5
// "investigate alternate peeling techniques" item.
func AblationPeeling(w io.Writer, sc Scale) []AblationRow {
	kern := kernelOf("blocked")
	tau := strassen.DefaultParams("blocked").Tau
	m := sc.sq(4*tau+3, 2*tau+1)
	base := configFor(kern)
	rows := []AblationRow{}
	for _, odd := range []strassen.OddStrategy{strassen.OddPeel, strassen.OddPeelFirst} {
		c := *base
		c.Odd = odd
		rows = append(rows, AblationRow{Name: odd.String(), Seconds: timeConfig(&c, m, 1, 0, 291)})
	}
	printAblation(w, fmt.Sprintf("Ablation: peel-last vs peel-first (order %d)", m), rows)
	return rows
}

// AblationParallel compares the sequential engine with the same calls on
// 2- and 4-worker task runtimes, which thread each level's passes and its
// leaves by column bands — the Section 5 parallelism
// item. On a single-CPU host the interest is overhead, not speedup.
func AblationParallel(w io.Writer, sc Scale) []AblationRow {
	kern := kernelOf("blocked")
	tau := strassen.DefaultParams("blocked").Tau
	m := sc.sq(4*tau, 2*tau)
	seq := configFor(kern)
	rows := []AblationRow{{Name: "sequential", Seconds: timeConfig(seq, m, 1, 0, 293)}}
	for _, workers := range []int{2, 4} {
		rt := sched.New(workers, 293)
		par := configFor(kern)
		par.Sched = rt
		name := fmt.Sprintf("task runtime (%d)", workers)
		rows = append(rows, AblationRow{Name: name, Seconds: timeConfig(par, m, 1, 0, 293)})
		rt.Close()
	}

	printAblation(w, fmt.Sprintf("Ablation: parallel execution modes (order %d, GOMAXPROCS-bound)", m), rows)
	return rows
}

// AblationCutoffs compares recursion-control policies end to end: no
// recursion (plain DGEMM), no cutoff (recurse to the hilt), the theoretical
// op-count cutoff (7), and the calibrated hybrid (15) — the paper's
// Section 2 point that cutoffs matter enormously (38.2 % at order 256 in
// the model) and that op counts alone mispredict the right cutoff.
func AblationCutoffs(w io.Writer, sc Scale) []AblationRow {
	kern := kernelOf("blocked")
	params := strassen.DefaultParams("blocked")
	m := sc.sq(4*params.Tau, 2*params.Tau)
	rows := []AblationRow{}
	for _, cfg := range []struct {
		name string
		crit strassen.Criterion
	}{
		{"never (plain DGEMM)", strassen.Never{}},
		{"no cutoff (full recursion)", strassen.Always{}},
		{"theoretical (7), τ=12", strassen.Theoretical{}},
		{"simple (11), calibrated τ", strassen.Simple{Tau: params.Tau}},
		{"hybrid (15), calibrated", params.Hybrid()},
	} {
		c := strassen.Config{Kernel: kern, Criterion: cfg.crit, Odd: strassen.OddPeel}
		rows = append(rows, AblationRow{Name: cfg.name, Seconds: timeConfig(&c, m, 1, 0, 287)})
	}
	printAblation(w, fmt.Sprintf("Ablation: cutoff criteria (order %d)", m), rows)
	return rows
}

// AblationKernels reports plain DGEMM throughput of every registered
// kernel: the three machine stand-ins plus the packed cache-blocked kernel
// (the default base-case multiplier), grounding the machine mapping of
// DESIGN.md. The kernels are timed in interleaved rounds and each reports
// its fastest round, so a burst of load from a co-running process lands
// on every kernel alike instead of on whichever ran through it.
func AblationKernels(w io.Writer, sc Scale) []AblationRow {
	m := sc.sq(384, 128)
	rng := rngFor(289)
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	c := matrix.NewRandom(m, m, rng)
	const rounds = 5
	names := blas.KernelNames()
	rows := make([]AblationRow, len(names))
	for round := 0; round < rounds; round++ {
		for i, name := range names {
			kern := blas.KernelByName(name)
			s := bench.Seconds(func() {
				blas.DgemmKernel(kern, blas.NoTrans, blas.NoTrans, m, m, m, 1,
					a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
			})
			if round == 0 || s < rows[i].Seconds {
				rows[i] = AblationRow{Name: name, Seconds: s}
			}
		}
	}
	fprintln(w, fmt.Sprintf("Kernels: plain DGEMM at order %d (fastest of %d interleaved rounds)", m, rounds))
	tb := bench.NewTable("kernel", "seconds", "MFLOPS")
	for _, r := range rows {
		tb.AddRow(r.Name, fmt.Sprintf("%.4g", r.Seconds), fmt.Sprintf("%.0f", bench.GemmFlops(m, m, m)/r.Seconds/1e6))
	}
	_, _ = tb.WriteTo(w)
	return rows
}

func printAblation(w io.Writer, title string, rows []AblationRow) {
	fprintln(w, title)
	tb := bench.NewTable("configuration", "seconds", "vs first")
	for _, r := range rows {
		tb.AddRow(r.Name, fmt.Sprintf("%.4g", r.Seconds), fmt.Sprintf("%.3f×", r.Seconds/rows[0].Seconds))
	}
	_, _ = tb.WriteTo(w)
}
