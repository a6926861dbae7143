package strassen

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/opcount"
)

func TestTheoreticalMatchesOpcountModel(t *testing.T) {
	f := func(m, k, n uint8) bool {
		mm, kk, nn := int(m)+1, int(k)+1, int(n)+1
		return Theoretical{}.Recurse(mm, kk, nn) == opcount.RecursionBenefits(mm, kk, nn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTheoreticalSquareBoundary(t *testing.T) {
	// Paper: standard algorithm wins for square order ≤ 12.
	if (Theoretical{}).Recurse(12, 12, 12) {
		t.Error("m=12 should not recurse")
	}
	if !(Theoretical{}.Recurse(13, 13, 13)) {
		t.Error("m=13 should recurse")
	}
	// Paper's rectangular example: (6,14,86) should recurse despite 6 < 12.
	if !(Theoretical{}.Recurse(6, 14, 86)) {
		t.Error("(6,14,86) should recurse")
	}
}

func TestSquareCriterion(t *testing.T) {
	c := Square{Tau: 100}
	if c.Recurse(100, 200, 200) {
		t.Error("m=τ should stop")
	}
	if !c.Recurse(101, 1, 1) {
		t.Error("square criterion only inspects m")
	}
}

func TestSimpleCriterion(t *testing.T) {
	c := Simple{Tau: 64}
	if !c.Recurse(65, 65, 65) {
		t.Error("all dims above τ should recurse")
	}
	for _, dims := range [][3]int{{64, 65, 65}, {65, 64, 65}, {65, 65, 64}} {
		if c.Recurse(dims[0], dims[1], dims[2]) {
			t.Errorf("dims=%v: any dim ≤ τ must stop under (11)", dims)
		}
	}
}

func TestScaledCriterionReducesToSquare(t *testing.T) {
	// (12) must agree with (10) when m = k = n: stop iff m ≤ τ.
	c := Scaled{Tau: 77}
	for m := 1; m <= 200; m++ {
		got := c.Recurse(m, m, m)
		want := m > 77
		if got != want {
			t.Fatalf("m=%d: scaled criterion %v, square %v", m, got, want)
		}
	}
}

func TestScaledAllowsThinRecursion(t *testing.T) {
	// Unlike (11), (12) can recurse with one small dimension if the others
	// are large: mkn > τ(nk+mn+mk)/3.
	c := Scaled{Tau: 64}
	if !c.Recurse(40, 2000, 2000) {
		t.Error("(12) should recurse on (40,2000,2000)")
	}
	if (Simple{Tau: 64}).Recurse(40, 2000, 2000) {
		t.Error("(11) should stop on (40,2000,2000)")
	}
}

func TestHybridCriterionRegions(t *testing.T) {
	c := Hybrid{Tau: 100, TauM: 75, TauK: 125, TauN: 95}
	// All dims > τ: always recurse, regardless of (13).
	if !c.Recurse(101, 101, 101) {
		t.Error("all dims > τ must recurse")
	}
	// All dims ≤ τ: never recurse even if (13) would allow it.
	if c.Recurse(100, 100, 100) {
		t.Error("all dims ≤ τ must stop")
	}
	// Mixed region: condition (13) rules. (80, 2000, 2000): m ≤ τ and
	// mkn = 3.2e8 > 75·4e6 + 125·1.6e5·... compute: τm·nk = 75·4e6 = 3e8;
	// τk·mn = 125·160000 = 2e7; τn·mk = 95·160000 = 1.52e7 → rhs ≈ 3.35e8.
	// lhs = 80·2000·2000 = 3.2e8 < rhs → stop.
	if c.Recurse(80, 2000, 2000) {
		t.Error("(80,2000,2000) should stop under (13) with these params")
	}
	// (90, 2000, 2000): lhs = 3.6e8 > rhs ≈ 3e8 + 2.25e7 + 1.71e7 ≈ 3.4e8 → recurse.
	if !c.Recurse(90, 2000, 2000) {
		t.Error("(90,2000,2000) should recurse under (13)")
	}
}

func TestHybridMatchesPaperRS6000Anecdote(t *testing.T) {
	// Paper Section 4.2: with the RS/6000 parameters (τ=199, τm=75, τk=125,
	// τn=95), criterion (11) stops (160, 957, 1957) [m ≤ τ] but the hybrid
	// allows the extra, profitable level.
	rs := Hybrid{Tau: 199, TauM: 75, TauK: 125, TauN: 95}
	m, n, k := 160, 957, 1957
	if (Simple{Tau: 199}).Recurse(m, k, n) {
		t.Error("(11) should prevent recursion here")
	}
	if !rs.Recurse(m, k, n) {
		t.Error("hybrid (15) should allow recursion here, as in the paper")
	}
}

func TestNeverAndAlways(t *testing.T) {
	if (Never{}).Recurse(1000, 1000, 1000) {
		t.Error("Never must never recurse")
	}
	if !(Always{}).Recurse(2, 2, 2) {
		t.Error("Always should recurse on splittable dims")
	}
	if (Always{}).Recurse(1, 10, 10) {
		t.Error("Always must not recurse on unsplittable dims")
	}
}

func TestCriterionNames(t *testing.T) {
	for _, c := range []Criterion{Theoretical{}, Square{Tau: 1}, Simple{Tau: 2}, Scaled{Tau: 3}, Hybrid{Tau: 4}, Never{}, Always{}} {
		if c.Name() == "" {
			t.Errorf("%T has empty name", c)
		}
	}
	if !strings.Contains((Hybrid{Tau: 9, TauM: 1, TauK: 2, TauN: 3}).Name(), "τ=9") {
		t.Error("hybrid name should include parameters")
	}
}

func TestDefaultParamsKnownKernels(t *testing.T) {
	for _, name := range []string{"blocked", "vector", "naive"} {
		p := DefaultParams(name)
		if p.Tau <= 0 || p.TauM <= 0 || p.TauK <= 0 || p.TauN <= 0 {
			t.Errorf("kernel %s has unset default params: %+v", name, p)
		}
	}
	// Unknown kernels fall back to blocked.
	if DefaultParams("???") != DefaultParams("blocked") {
		t.Error("unknown kernel should fall back to blocked params")
	}
}

func TestSetDefaultParams(t *testing.T) {
	old := DefaultParams("naive")
	defer SetDefaultParams("naive", old)
	SetDefaultParams("naive", Params{Tau: 1, TauM: 2, TauK: 3, TauN: 4})
	if got := DefaultParams("naive"); got.Tau != 1 || got.TauN != 4 {
		t.Errorf("SetDefaultParams not applied: %+v", got)
	}
}

// TestCalibratedRowResolvedPerCall checks that a DefaultConfig freezes no
// cutoff: each call looks its calibrated row up, so a table chosen after
// DefaultConfig, the fused driver turned off after it, and a
// SetDefaultParams made after it all reach the recursion.
// TestCalibratedRowPerKernel: every built-in kernel, and the default one,
// resolves to a row of its own name — "<kernel>+fused" for a fused call
// where that row exists, else "<kernel>" — sequentially and on a runtime
// with no row for its core count. None falls through to the blocked row
// unless it is the blocked kernel: a kernel named outside the table (a
// wrapper, say) would silently take blocked's τ.
func TestCalibratedRowPerKernel(t *testing.T) {
	rows := *defaultParams.Load()
	names := append(blas.KernelNames(), kernel.Default().Name())
	for _, name := range names {
		own, ok := rows[name]
		if !ok {
			t.Errorf("kernel %q has no cutoff row", name)
			continue
		}
		for _, fused := range []bool{false, true} {
			want := own
			if p, ok := rows[name+"+fused"]; fused && ok {
				want = p
			}
			for _, cores := range []int{0, 3} {
				if _, ok := rows[name+"@"+strconv.Itoa(cores)]; ok {
					t.Fatalf("the table has a %s@%d row; pick a core count without one", name, cores)
				}
				if got := calibrated(name, "", fused, cores); got != want {
					t.Errorf("calibrated(%q, fused=%v, cores=%d) = %+v, want its own row %+v",
						name, fused, cores, got, want)
				}
			}
		}
	}
}

func TestCalibratedRowResolvedPerCall(t *testing.T) {
	kern := kernel.Default()
	name := kern.Name()
	var probes []int
	for _, key := range []string{name, name + "+fused", name + "/323"} {
		tau := DefaultParams(key).Tau
		probes = append(probes, tau, tau+1)
	}
	probes = append(probes, 480)
	// resolves checks that cfg plans like cfg with row as its criterion.
	resolves := func(label string, cfg *Config, row Params) {
		t.Helper()
		pinned := *cfg
		pinned.Criterion = row.Hybrid()
		for _, n := range probes {
			got, want := PlanFor(cfg, n, n, n, true).Depth, PlanFor(&pinned, n, n, n, true).Depth
			if got != want {
				t.Errorf("%s, n=%d: depth %d, want %d (the %+v row)", label, n, got, want, row)
			}
		}
	}

	cfg := DefaultConfig(kern)
	cfg.Algo = "323"
	resolves("Algo=323", cfg, DefaultParams(name+"/323"))

	// The default table is named so DGEFMM_ALGO cannot pick another row.
	cfg = DefaultConfig(kern)
	cfg.Algo, cfg.Fused = "default", FusedOff
	resolves("Fused=off", cfg, DefaultParams(name))

	old := defaultParams.Load()
	defer defaultParams.Store(old)
	cfg = DefaultConfig(kern)
	cfg.Algo = "default"
	const n = 1024
	if PlanFor(cfg, n, n, n, true).Depth == 0 {
		t.Fatalf("n=%d does not recurse under the shipped rows", n)
	}
	never := Params{Tau: 1 << 20, TauM: 1 << 20, TauK: 1 << 20, TauN: 1 << 20}
	SetDefaultParams(name, never)
	SetDefaultParams(name+"+fused", never)
	if d := PlanFor(cfg, n, n, n, true).Depth; d != 0 {
		t.Errorf("SetDefaultParams after DefaultConfig ignored: depth %d at n=%d, want 0", d, n)
	}
}

// TestSetDefaultParamsWhileMultiplying changes the calibrated table while
// multiplies on a literal Config look their row up in it; run under -race
// it checks the table is safe to change concurrently.
func TestSetDefaultParamsWhileMultiplying(t *testing.T) {
	old := defaultParams.Load()
	defer defaultParams.Store(old)
	const n, calls = 48, 50
	rng := rand.New(rand.NewSource(18))
	a, b := matrix.NewRandom(n, n, rng), matrix.NewRandom(n, n, rng)
	want := refMul(blas.NoTrans, blas.NoTrans, 1, a, b, 0, matrix.NewDense(n, n))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < calls; i++ {
			SetDefaultParams("naive", Params{Tau: 8 + i%32, TauM: 4, TauK: 4, TauN: 4})
		}
	}()
	cfg := &Config{Kernel: blas.NaiveKernel{}}
	for i := 0; i < calls; i++ {
		c := matrix.NewDense(n, n)
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		if d := matrix.MaxAbsDiff(c, want); d > tol(n) {
			t.Fatalf("call %d: error %g exceeds %g", i, d, tol(n))
		}
	}
	wg.Wait()
}

func TestScheduleAndOddStrings(t *testing.T) {
	if ScheduleAuto.String() != "auto" || ScheduleOriginal.String() != "original" {
		t.Error("schedule names")
	}
	if OddPeel.String() != "peel" || OddPadStatic.String() != "pad-static" {
		t.Error("odd strategy names")
	}
	if Schedule(99).String() != "unknown" || OddStrategy(99).String() != "unknown" {
		t.Error("out-of-range names")
	}
}
