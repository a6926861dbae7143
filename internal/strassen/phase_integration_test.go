package strassen_test

import (
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/opcount"
	"repro/internal/phase"
	"repro/internal/strassen"
)

// The acceptance check of the attribution subsystem: the FLOPs the phase
// counters measure during a real multiply must equal the analytic
// per-phase decomposition in internal/opcount, exactly — not within a
// tolerance. Power-of-two shapes with MaxDepth pin the recursion so the
// analytic side is well defined (no peeling, all leaves even).
func TestPhaseCountersMatchAnalyticCounts(t *testing.T) {
	if sel := (&strassen.Config{}).AlgoSelection(); sel != "default" {
		t.Skipf("DGEFMM_ALGO pins %q; this test asserts the Winograd schedules' counts", sel)
	}
	if !phase.Enabled {
		t.Skip("phase accounting compiled out (-tags phaseoff)")
	}
	for _, tc := range []struct{ n, depth int }{
		{128, 1}, {128, 2}, {256, 2}, {256, 3},
	} {
		prof := &phase.Profiler{}
		prev := phase.SetActive(prof)

		rng := rand.New(rand.NewSource(7))
		a := matrix.NewRandom(tc.n, tc.n, rng)
		b := matrix.NewRandom(tc.n, tc.n, rng)
		c := matrix.NewDense(tc.n, tc.n)
		cfg := &strassen.Config{
			Schedule:  strassen.ScheduleStrassen1,
			Criterion: strassen.Always{},
			MaxDepth:  tc.depth,
		}
		strassen.Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
		phase.SetActive(prev)

		snap := prof.Snapshot()
		want := opcount.Strassen1Counts(tc.depth, tc.n, tc.n, tc.n)
		mul := snap[phase.KernelMicro].Flops + snap[phase.KernelFringe].Flops
		if mul != want.Mul {
			t.Errorf("n=%d d=%d: kernel micro+fringe FLOPs = %d, analytic %d",
				tc.n, tc.depth, mul, want.Mul)
		}
		if got := snap[phase.StrassenAddSub].Flops; got != want.AddSub {
			t.Errorf("n=%d d=%d: addsub FLOPs = %d, analytic %d",
				tc.n, tc.depth, got, want.AddSub)
		}
		if got := snap[phase.StrassenQuadrant].Flops; got != want.Quadrant {
			t.Errorf("n=%d d=%d: quadrant FLOPs = %d, analytic %d",
				tc.n, tc.depth, got, want.Quadrant)
		}
		if got := snap[phase.StrassenPeel].Flops; got != 0 {
			t.Errorf("n=%d d=%d: peel FLOPs = %d on even shapes", tc.n, tc.depth, got)
		}
	}
}

// The table-driven recursion carries the same attribution contract as the
// hand-coded schedules: measured per-phase FLOPs equal opcount.TableCounts
// exactly, for every non-default built-in table, on grid-divisible shapes
// with the depth pinned and fusion off (the analytic model's validity
// window).
func TestTablePhaseCountersMatchAnalytic(t *testing.T) {
	if !phase.Enabled {
		t.Skip("phase accounting compiled out (-tags phaseoff)")
	}
	for _, tc := range []struct {
		algo    string
		m, k, n int
		depth   int
	}{
		{"classic", 16, 16, 16, 2},
		{"323", 18, 8, 18, 1},
		{"323", 18, 8, 18, 2},
		{"333", 18, 18, 18, 2},
		{"424", 32, 8, 32, 2},
	} {
		tbl, ok := algo.ByName(tc.algo)
		if !ok {
			t.Fatalf("table %s not registered", tc.algo)
		}
		prof := &phase.Profiler{}
		prev := phase.SetActive(prof)

		rng := rand.New(rand.NewSource(13))
		a := matrix.NewRandom(tc.m, tc.k, rng)
		b := matrix.NewRandom(tc.k, tc.n, rng)
		c := matrix.NewDense(tc.m, tc.n)
		cfg := &strassen.Config{
			Criterion: strassen.Always{},
			MaxDepth:  tc.depth,
			Fused:     strassen.FusedOff,
			Algo:      tc.algo,
		}
		strassen.Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
		phase.SetActive(prev)

		snap := prof.Snapshot()
		want := opcount.TableCounts(tbl, tc.depth, tc.m, tc.k, tc.n)
		mul := snap[phase.KernelMicro].Flops + snap[phase.KernelFringe].Flops
		if mul != want.Mul {
			t.Errorf("%s (%d,%d,%d) d=%d: kernel FLOPs = %d, analytic %d",
				tc.algo, tc.m, tc.k, tc.n, tc.depth, mul, want.Mul)
		}
		if got := snap[phase.StrassenAddSub].Flops; got != want.AddSub {
			t.Errorf("%s (%d,%d,%d) d=%d: addsub FLOPs = %d, analytic %d",
				tc.algo, tc.m, tc.k, tc.n, tc.depth, got, want.AddSub)
		}
		if got := snap[phase.StrassenQuadrant].Flops; got != want.Quadrant {
			t.Errorf("%s (%d,%d,%d) d=%d: quadrant FLOPs = %d, analytic %d",
				tc.algo, tc.m, tc.k, tc.n, tc.depth, got, want.Quadrant)
		}
		if got := snap[phase.StrassenPeel].Flops; got != 0 {
			t.Errorf("%s (%d,%d,%d) d=%d: peel FLOPs = %d on divisible shapes",
				tc.algo, tc.m, tc.k, tc.n, tc.depth, got)
		}
	}
}

// With no profiler installed, a multiply must leave no trace — the
// uninstrumented path is the default and must stay silent.
func TestNoProfilerRecordsNothing(t *testing.T) {
	prof := &phase.Profiler{}
	// Deliberately NOT installed via SetActive.
	rng := rand.New(rand.NewSource(3))
	a := matrix.NewRandom(64, 64, rng)
	b := matrix.NewRandom(64, 64, rng)
	c := matrix.NewDense(64, 64)
	strassen.Multiply(nil, c, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
	for _, st := range prof.Snapshot() {
		if st.Count != 0 {
			t.Fatalf("uninstalled profiler accumulated %+v", st)
		}
	}
}

// The result of a multiply must be bit-identical with and without the
// profiler installed: attribution observes, never perturbs.
func TestProfilerDoesNotPerturbResults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := matrix.NewRandom(96, 80, rng)
	b := matrix.NewRandom(80, 112, rng)
	c1 := matrix.NewDense(96, 112)
	c2 := matrix.NewDense(96, 112)

	strassen.Multiply(nil, c1, blas.NoTrans, blas.NoTrans, 1, a, b, 0)

	prof := &phase.Profiler{}
	prev := phase.SetActive(prof)
	strassen.Multiply(nil, c2, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
	phase.SetActive(prev)

	for i := range c1.Data {
		if c1.Data[i] != c2.Data[i] {
			t.Fatalf("element %d differs: %g vs %g", i, c1.Data[i], c2.Data[i])
		}
	}
	if phase.Enabled && prof.Snapshot()[phase.KernelMicro].Count == 0 {
		t.Fatal("profiler installed but kernel.micro saw no samples")
	}
}

// eventRecorder keeps every trace event of a call.
type eventRecorder struct{ events []strassen.TraceEvent }

func (r *eventRecorder) Event(e strassen.TraceEvent) { r.events = append(r.events, e) }

// Peeling's fixups are charged to strassen.peel under either peeling
// strategy: on odd shapes the phase's FLOPs equal, summed over the fixups
// the trace lists, 2·me·ne for a DGER, 2·me·k for a column DGEMV and
// 2·k·n for a row DGEMV, where (m, k, n) is the peeled level's shape and
// me×ne its even core.
func TestPeelPhaseCounts(t *testing.T) {
	if sel := (&strassen.Config{}).AlgoSelection(); sel != "default" {
		t.Skipf("DGEFMM_ALGO pins %q; this test peels on the ⟨2,2,2⟩ grid", sel)
	}
	if !phase.Enabled {
		t.Skip("phase accounting compiled out (-tags phaseoff)")
	}
	for _, odd := range []strassen.OddStrategy{strassen.OddPeel, strassen.OddPeelFirst} {
		for _, dims := range [][3]int{{67, 45, 53}, {33, 33, 33}, {64, 65, 64}, {70, 64, 71}} {
			m, k, n := dims[0], dims[1], dims[2]
			rng := rand.New(rand.NewSource(13))
			a := matrix.NewRandom(m, k, rng)
			b := matrix.NewRandom(k, n, rng)
			c := matrix.NewRandom(m, n, rng)
			rec := &eventRecorder{}
			cfg := &strassen.Config{Criterion: strassen.Simple{Tau: 16}, Odd: odd, Fused: strassen.FusedOff, Tracer: rec}
			prof := &phase.Profiler{}
			prev := phase.SetActive(prof)
			strassen.Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.5)
			phase.SetActive(prev)
			var want int64
			fixups := 0
			for _, e := range rec.events {
				me, ne := int64(e.M&^1), int64(e.N&^1)
				switch e.Action {
				case "fixup-ger":
					want += 2 * me * ne
				case "fixup-col":
					want += 2 * me * int64(e.K)
				case "fixup-row":
					want += 2 * int64(e.K) * int64(e.N)
				default:
					continue
				}
				fixups++
			}
			got := prof.Snapshot()[phase.StrassenPeel].Flops
			if fixups == 0 || got == 0 || got != want {
				t.Errorf("%v (%d,%d,%d): strassen.peel %d FLOPs over %d traced fixups, want %d (and some)", odd, m, k, n, got, fixups, want)
			}
		}
	}
}
