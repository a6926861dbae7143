package experiments

import (
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/kernel"
)

// Smoke tests run every experiment in quick mode, asserting structural
// properties of the measurements (counts, positivity, the paper's
// qualitative shapes where they are robust at tiny sizes). The full-scale
// runs live in cmd/dgefmm-bench and the repository benchmarks.

var quick = Scale{Quick: true}

func TestMachines(t *testing.T) {
	ms := Machines()
	if len(ms) != 3 {
		t.Fatal("three machines")
	}
	if ms[0].Paper != "RS/6000" || ms[0].Kernel != "blocked" {
		t.Fatalf("machine mapping: %+v", ms[0])
	}
}

func TestTable1Quick(t *testing.T) {
	var sb strings.Builder
	rows := Table1(&sb, 64, quick)
	if len(rows) != 12 {
		t.Fatalf("want 12 rows, got %d", len(rows))
	}
	byKey := map[string]Table1Row{}
	for _, r := range rows {
		key := r.Impl
		if r.Beta != 0 {
			key += "≠"
		}
		byKey[key] = r
	}
	// The paper's own memory claims, measured: DGEFMM within its bounds.
	m2 := float64(64 * 64)
	if r := byKey["DGEFMM"]; float64(r.MeasuredWords) > 2*m2/3 {
		t.Errorf("DGEFMM β=0 measured %d > 2m²/3", r.MeasuredWords)
	}
	if r := byKey["DGEFMM≠"]; float64(r.MeasuredWords) > m2 {
		t.Errorf("DGEFMM β≠0 measured %d > m²", r.MeasuredWords)
	}
	// DGEFMM β≠0 must not exceed the lean schedules' shared machinery (our
	// SGEMMS stand-in reuses it, so it ties rather than exceeds — see the
	// substitution note in baselines).
	if byKey["DGEFMM≠"].MeasuredWords > byKey["SGEMMS (CRAY style)≠"].MeasuredWords {
		t.Error("DGEFMM should not use more workspace than the CRAY-style code")
	}
	// The multiply-only interface pays a full extra m×n for the caller-side
	// update in the general case — the Table 1 asymmetry DGEFMM removes.
	if byKey["DGEMMS+update loop≠"].MeasuredWords < byKey["DGEMMS (ESSL style)"].MeasuredWords+int64(64*64) {
		t.Error("DGEMMS general case should pay an extra m² for the update buffer")
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("missing header")
	}
}

func TestFigure2Quick(t *testing.T) {
	pts := Figure2(io.Discard, "naive", 16, 64, 16, quick)
	if len(pts) != 4 {
		t.Fatalf("want 4 points, got %d", len(pts))
	}
	for _, p := range pts {
		if p.Ratio <= 0 {
			t.Fatal("nonpositive ratio")
		}
	}
}

func TestTable2Quick(t *testing.T) {
	rows := Table2(io.Discard, quick)
	if len(rows) != 3 {
		t.Fatal("three machines")
	}
	for _, r := range rows {
		if r.Tau <= 0 {
			t.Fatalf("machine %s: τ=%d", r.Machine.Paper, r.Tau)
		}
	}
}

func TestTable3Quick(t *testing.T) {
	rows := Table3(io.Discard, quick)
	if len(rows) != 3 {
		t.Fatal("three machines")
	}
	for _, r := range rows {
		if r.Params.TauM <= 0 || r.Params.TauK <= 0 || r.Params.TauN <= 0 {
			t.Fatalf("machine %s: params %+v", r.Machine.Paper, r.Params)
		}
	}
}

func TestTable4Quick(t *testing.T) {
	rows := Table4(io.Discard, 2, quick)
	if len(rows) == 0 {
		t.Fatal("no comparisons produced")
	}
	for _, r := range rows {
		if r.Summary.Mean <= 0 {
			t.Fatalf("%s %s: bad mean", r.Machine.Paper, r.Comparison)
		}
	}
}

func TestTable5Quick(t *testing.T) {
	rows := Table5(io.Discard, 2, quick)
	if len(rows) != 6 { // 3 machines × 2 recursion depths
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.TGemm <= 0 || r.TDgefmm <= 0 {
			t.Fatal("nonpositive time")
		}
	}
	// Orders must double (+small peel term) per recursion.
	if rows[1].Order != 2*rows[0].Order {
		t.Fatalf("orders: %d then %d", rows[0].Order, rows[1].Order)
	}
}

func TestFigure3Quick(t *testing.T) {
	simple, general := Figure3(io.Discard, quick)
	if len(simple.Ratios) == 0 || len(general.Ratios) == 0 {
		t.Fatal("empty series")
	}
	if math.IsNaN(simple.Mean()) || math.IsNaN(general.Mean()) {
		t.Fatal("NaN mean")
	}
}

func TestFigure4Quick(t *testing.T) {
	simple, general := Figure4(io.Discard, quick)
	if len(simple.Ratios) == 0 || len(general.Ratios) == 0 {
		t.Fatal("empty series")
	}
}

func TestFigure5Quick(t *testing.T) {
	general, simple := Figure5(io.Discard, quick)
	if len(general.Ratios) == 0 || len(simple.Ratios) == 0 {
		t.Fatal("empty series")
	}
}

func TestFigure6Quick(t *testing.T) {
	s := Figure6(io.Discard, 3, quick)
	if len(s.Ratios) != 3 {
		t.Fatalf("want 3 problems, got %d", len(s.Ratios))
	}
	for i := range s.X {
		if s.X[i] <= 0 {
			t.Fatal("log-volume must be positive")
		}
	}
}

func TestTable6Quick(t *testing.T) {
	rows := Table6(io.Discard, 64, quick)
	if len(rows) != 2 {
		t.Fatal("two engines")
	}
	if rows[0].Engine != "DGEMM" || rows[1].Engine != "DGEFMM" {
		t.Fatal("engine order")
	}
	for _, r := range rows {
		if r.TotalSec <= 0 || r.MMSec <= 0 || r.MMCalls == 0 {
			t.Fatalf("row %+v", r)
		}
		if r.MMSec > r.TotalSec {
			t.Fatal("MM time cannot exceed total")
		}
	}
	if rows[1].MaxValErr > 1e-6 {
		t.Fatalf("eigenvalues disagree across engines: %g", rows[1].MaxValErr)
	}
}

func TestParallelScalingQuick(t *testing.T) {
	rows := ParallelScaling(io.Discard, 48, quick)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	if last := rows[len(rows)-1].Workers; last != runtime.GOMAXPROCS(0) {
		t.Errorf("last worker count %d, want GOMAXPROCS %d", last, runtime.GOMAXPROCS(0))
	}
	seen := map[int]bool{}
	for _, r := range rows {
		if r.Seconds <= 0 || r.Speedup <= 0 {
			t.Errorf("non-positive measurement: %+v", r)
		}
		if seen[r.Workers] {
			t.Errorf("duplicate worker count %d", r.Workers)
		}
		seen[r.Workers] = true
	}
}

func TestAblationsQuick(t *testing.T) {
	if rows := AblationSchedules(io.Discard, quick); len(rows) != 4 {
		t.Fatal("schedules rows")
	}
	if rows := AblationOddHandling(io.Discard, quick); len(rows) != 3 {
		t.Fatal("odd rows")
	}
	if rows := AblationVariant(io.Discard, quick); len(rows) != 2 {
		t.Fatal("variant rows")
	}
	if rows := AblationCutoffs(io.Discard, quick); len(rows) != 5 {
		t.Fatal("cutoff rows")
	}
	if rows := AblationPeeling(io.Discard, quick); len(rows) != 2 {
		t.Fatal("peeling rows")
	}
	if rows := AblationParallel(io.Discard, quick); len(rows) != 3 {
		t.Fatal("parallel rows: want sequential, task runtime (2), task runtime (4)")
	}
	rows := AblationKernels(io.Discard, quick)
	if len(rows) != len(blas.KernelNames()) {
		t.Fatalf("kernel rows: got %d, want one per registered kernel (%d)", len(rows), len(blas.KernelNames()))
	}
	// The cache-aware kernels must beat naive — that ordering is what the
	// machine mapping relies on — and packed must be in the report now that
	// it is the default base-case multiplier. "simd" only registers on
	// hosts whose CPU passes feature detection.
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.Seconds
	}
	// The rows must mirror the registry exactly: "simd" appears iff it
	// registered (hardware has it AND no DGEFMM_KERNEL override pinned the
	// process to another path).
	for _, name := range blas.KernelNames() {
		if _, ok := byName[name]; !ok {
			t.Errorf("registered kernel %q missing from the ablation", name)
		}
	}
	if _, simdRegistered := byName["simd"]; simdRegistered && !kernel.HasSIMD() {
		t.Error("simd kernel reported on a host without SIMD")
	}
	if byName["blocked"] >= byName["naive"] {
		t.Errorf("blocked (%v) should beat naive (%v)", byName["blocked"], byName["naive"])
	}
	if _, ok := byName["packed"]; !ok {
		t.Error("packed kernel missing from the kernel ablation")
	}
	if byName["packed"] >= byName["naive"] {
		t.Errorf("packed (%v) should beat naive (%v)", byName["packed"], byName["naive"])
	}
}

func TestModelQuick(t *testing.T) {
	rows := Model(io.Discard, quick)
	if len(rows) != 3 {
		t.Fatalf("want 3 machines, got %d", len(rows))
	}
	// Wall-clock fits on a shared host can be polluted by a stray sample;
	// require a clean fit on a majority of the machines.
	clean := 0
	for _, r := range rows {
		if r.Gemm.C3 > 0 && r.Gemm.R2 > 0.9 && r.Predicted > 1 {
			clean++
		} else {
			t.Logf("%s: noisy fit: %v (predicted %d)", r.Machine.Paper, r.Gemm, r.Predicted)
		}
	}
	if clean < 2 {
		t.Fatalf("only %d of 3 machines produced a clean model fit", clean)
	}
}

func TestStabilityQuick(t *testing.T) {
	ms := Stability(io.Discard, 48, 2, quick)
	if len(ms) != 3 {
		t.Fatalf("want DGEMM + 2 depths, got %d rows", len(ms))
	}
	for _, m := range ms {
		if m.MaxAbsErr < 0 || m.MaxAbsErr > 1e-9 {
			t.Fatalf("implausible error %g at depth %d", m.MaxAbsErr, m.Depth)
		}
	}
}
