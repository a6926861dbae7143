package strassen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/sched"
)

// These tests verify the paper's Section 3.2 / Table 1 memory claims by
// *measuring* workspace high-water marks with the accounting allocator,
// rather than trusting the analytic bounds.

func measurePeak(t *testing.T, sched Schedule, m, k, n int, beta float64) int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*31 + k*7 + n)))
	tr := memtrack.New()
	cfg := &Config{
		Kernel:    blas.NaiveKernel{},
		Criterion: Always{}, // recurse as deep as possible: worst case for memory
		Schedule:  sched,
		Odd:       OddPeel,
		MaxDepth:  6,
		Tracker:   tr,
	}
	a := matrix.NewRandom(m, k, rng)
	b := matrix.NewRandom(k, n, rng)
	c := matrix.NewRandom(m, n, rng)
	want := refMul(blas.NoTrans, blas.NoTrans, 1, a, b, beta, c)
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
	if d := matrix.MaxAbsDiff(c, want); d > tol(k) {
		t.Fatalf("result wrong while measuring memory: %g", d)
	}
	if tr.Live() != 0 {
		t.Fatalf("workspace leak: %d words still live", tr.Live())
	}
	return tr.Peak()
}

func TestStrassen2MemoryBound(t *testing.T) {
	skipIfAlgoPinned(t)
	// STRASSEN2: extra space ≤ (mk + kn + mn)/3 — m² in the square case.
	for _, m := range []int{32, 64, 128} {
		peak := measurePeak(t, ScheduleStrassen2, m, m, m, 0.5)
		bound := int64(m * m)
		if peak > bound {
			t.Errorf("m=%d: STRASSEN2 peak %d exceeds paper bound %d", m, peak, bound)
		}
		// The bound should also be reasonably tight (> half used), or we're
		// not measuring what we think we are.
		if peak < bound/2 {
			t.Errorf("m=%d: peak %d suspiciously far below bound %d", m, peak, bound)
		}
	}
}

func TestStrassen2MemoryBoundRectangular(t *testing.T) {
	for _, dims := range [][3]int{{64, 32, 96}, {32, 128, 32}, {48, 48, 96}} {
		m, k, n := dims[0], dims[1], dims[2]
		peak := measurePeak(t, ScheduleStrassen2, m, k, n, 2)
		bound := int64(m*k+k*n+m*n) / 3
		if peak > bound {
			t.Errorf("dims=%v: STRASSEN2 peak %d exceeds bound %d", dims, peak, bound)
		}
	}
}

func TestStrassen1MemoryBound(t *testing.T) {
	skipIfAlgoPinned(t)
	// STRASSEN1 (β=0): extra space ≤ (m·max(k,n) + kn)/3 — 2m²/3 square.
	for _, m := range []int{32, 64, 128} {
		peak := measurePeak(t, ScheduleStrassen1, m, m, m, 0)
		bound := int64(2*m*m) / 3
		if peak > bound {
			t.Errorf("m=%d: STRASSEN1 peak %d exceeds paper bound %d (2m²/3)", m, peak, bound)
		}
		if peak < bound/2 {
			t.Errorf("m=%d: peak %d suspiciously below bound %d", m, peak, bound)
		}
	}
}

func TestStrassen1MemoryBoundRectangular(t *testing.T) {
	skipIfAlgoPinned(t)
	for _, dims := range [][3]int{{64, 32, 96}, {32, 128, 32}, {96, 48, 48}} {
		m, k, n := dims[0], dims[1], dims[2]
		peak := measurePeak(t, ScheduleStrassen1, m, k, n, 0)
		mx := k
		if n > mx {
			mx = n
		}
		bound := int64(m*mx+k*n) / 3
		if peak > bound {
			t.Errorf("dims=%v: STRASSEN1 peak %d exceeds bound %d", dims, peak, bound)
		}
	}
}

func TestAutoScheduleMemoryMatchesTable1(t *testing.T) {
	// DGEFMM (auto): 2m²/3 when β = 0, m² when β ≠ 0 — the last row of
	// Table 1 and the paper's headline memory claim. The claim is about
	// the Winograd schedules; a table algorithm pinned via DGEFMM_ALGO
	// has its own (larger) workspace model, covered by TestPlanForTables.
	if sel := (&Config{}).AlgoSelection(); sel != "default" && sel != AlgoAuto {
		t.Skipf("DGEFMM_ALGO pins %q; Table 1 bounds apply to the Winograd schedules", sel)
	}
	m := 96
	peak0 := measurePeak(t, ScheduleAuto, m, m, m, 0)
	if bound := int64(2*m*m) / 3; peak0 > bound {
		t.Errorf("auto β=0 peak %d exceeds 2m²/3 = %d", peak0, bound)
	}
	peak1 := measurePeak(t, ScheduleAuto, m, m, m, 1)
	if bound := int64(m * m); peak1 > bound {
		t.Errorf("auto β≠0 peak %d exceeds m² = %d", peak1, bound)
	}
	if peak0 >= peak1 {
		t.Errorf("β=0 path (%d) should use less memory than β≠0 path (%d)", peak0, peak1)
	}
}

func TestStrassen1GeneralBetaWithinTable1Bound(t *testing.T) {
	// Forced STRASSEN1 with β≠0 stays within the paper's 2m² (Table 1).
	m := 64
	peak := measurePeak(t, ScheduleStrassen1, m, m, m, 1)
	if bound := int64(2 * m * m); peak > bound {
		t.Errorf("STRASSEN1 β≠0 peak %d exceeds 2m² = %d", peak, bound)
	}
}

func TestPeelingAddsNoWorkspace(t *testing.T) {
	// Dynamic peeling's fixups are DGER/DGEMV on existing storage: an
	// odd-sized multiply must not allocate more than the even core does.
	evenPeak := measurePeak(t, ScheduleStrassen2, 64, 64, 64, 1)
	oddPeak := measurePeak(t, ScheduleStrassen2, 65, 65, 65, 1)
	if oddPeak > evenPeak {
		t.Errorf("peeling allocated extra workspace: odd %d > even %d", oddPeak, evenPeak)
	}
}

func TestDynamicPaddingUsesMoreMemoryThanPeeling(t *testing.T) {
	skipIfAlgoPinned(t)
	// The paper's motivation for peeling: "no additional memory is needed
	// when odd dimensions are encountered", unlike padding.
	m := 65
	rng := rand.New(rand.NewSource(99))
	peak := func(odd OddStrategy) int64 {
		tr := memtrack.New()
		cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Odd: odd, Tracker: tr}
		a := matrix.NewRandom(m, m, rng)
		b := matrix.NewRandom(m, m, rng)
		c := matrix.NewDense(m, m)
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		return tr.Peak()
	}
	if pPeel, pPad := peak(OddPeel), peak(OddPadDynamic); pPad <= pPeel {
		t.Errorf("expected dynamic padding (%d) to use more workspace than peeling (%d)", pPad, pPeel)
	}
}

func TestWorkspaceBoundCoversMeasuredPeaks(t *testing.T) {
	skipIfAlgoPinned(t)
	// The paper's closed-form Table 1 bound must dominate every measured
	// peak of these peeling configurations. (internal/batch sizes its
	// per-worker arenas with PlanFor, which equals the measured peak to the
	// word — TestPlanMatchesMeasured* — not with WorkspaceBound.)
	for _, sched := range []Schedule{ScheduleAuto, ScheduleStrassen1, ScheduleStrassen2} {
		for _, dims := range [][3]int{{64, 64, 64}, {96, 96, 96}, {64, 32, 96}, {65, 65, 65}} {
			m, k, n := dims[0], dims[1], dims[2]
			for _, beta := range []float64{0, 0.5} {
				peak := measurePeak(t, sched, m, k, n, beta)
				bound := WorkspaceBound(sched, m, k, n, beta == 0)
				if peak > bound {
					t.Errorf("sched=%v dims=%v beta=%g: measured peak %d exceeds WorkspaceBound %d",
						sched, dims, beta, peak, bound)
				}
			}
		}
	}
	// And the square closed forms of Table 1 are exactly what it returns.
	if got, want := WorkspaceBound(ScheduleAuto, 96, 96, 96, true), int64(2*96*96)/3; got != want {
		t.Errorf("β=0 square bound = %d, want 2m²/3 = %d", got, want)
	}
	if got, want := WorkspaceBound(ScheduleAuto, 96, 96, 96, false), int64(96*96); got != want {
		t.Errorf("β≠0 square bound = %d, want m² = %d", got, want)
	}
}

// TestWorkspaceBoundCoversRuntimeCalls: a call on a 2-worker task runtime
// runs the programs of the call without one, so on a three-level peeling
// tree the plan stays within the Table 1 bound and the measured peak
// equals the plan to the word, for every schedule and β class.
func TestWorkspaceBoundCoversRuntimeCalls(t *testing.T) {
	skipIfAlgoPinned(t)
	w2 := sched.New(2, 1)
	defer w2.Close()
	for _, schedule := range []Schedule{ScheduleAuto, ScheduleStrassen1, ScheduleStrassen2} {
		for _, dims := range [][3]int{{64, 64, 64}, {67, 61, 71}} {
			m, k, n := dims[0], dims[1], dims[2]
			for _, beta := range []float64{0, 0.5} {
				rng := rand.New(rand.NewSource(int64(m*31 + k*7 + n)))
				tr := memtrack.New()
				cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 3,
					Schedule: schedule, Odd: OddPeel, Sched: w2}
				plan := PlanFor(cfg, m, n, k, beta == 0)
				cfg.Tracker = tr
				a := matrix.NewRandom(m, k, rng)
				b := matrix.NewRandom(k, n, rng)
				c := matrix.NewRandom(m, n, rng)
				DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
				what := fmt.Sprintf("sched=%v dims=%v beta=%g", schedule, dims, beta)
				if plan.Depth != 3 {
					t.Fatalf("%s: plan depth %d, want a three-level tree", what, plan.Depth)
				}
				if bound := WorkspaceBound(schedule, m, k, n, beta == 0); plan.Words > bound {
					t.Errorf("%s: plan words %d exceed WorkspaceBound %d", what, plan.Words, bound)
				}
				if tr.Peak() != plan.Words || tr.Live() != 0 {
					t.Errorf("%s: measured peak %d (%d live), plan words %d", what, tr.Peak(), tr.Live(), plan.Words)
				}
			}
		}
	}
}

func TestTrackerReuseAcrossLevels(t *testing.T) {
	// The recursion must recycle temporaries instead of re-allocating.
	rng := rand.New(rand.NewSource(100))
	tr := memtrack.New()
	cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Tracker: tr}
	m := 64
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	c := matrix.NewDense(m, m)
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	if tr.Reused() == 0 {
		t.Error("expected workspace reuse across sibling recursive calls")
	}
}

// TestPlanMatchesMeasuredVirtualPadding: on odd shapes whose levels pad
// virtually — a fused level (one or two levels fused as one node) at the
// top or below a materialized one, a materialized level over fused
// children (as odd_update ran 1023³ before its two levels fused), on
// rectangular shapes and on a wider table's grid — PlanFor still equals
// the measured Strassen workspace peak and the kernel arena peak to the
// word. Fused leaves pack their rounded-up block shape, so KernelWords
// follows the padded blocks, and a virtually padded materialized level's
// temporaries have the rounded-up block shape. Peel counts are per β: a
// β = 0 default level is STRASSEN1, which peels where its C blocks
// overhang in m or n. A kernel that fuses two levels runs each tree one
// level deeper, so that the same levels run above its fused node.
func TestPlanMatchesMeasuredVirtualPadding(t *testing.T) {
	type tree struct {
		m, k, n, tau int
		fused        string // the fused node's trace action
		nodes        int    // how many fused nodes run
		peels        [2]int // expected peel events at β = 0 and β = 0.5
	}
	cases := []struct {
		algo     string
		one, two tree // on a kernel that fuses one level and on one that fuses two
	}{
		// The top level pads virtually.
		{"default", tree{33, 33, 33, 17, "fused1", 1, [2]int{0, 0}}, tree{67, 67, 67, 17, "fused2", 1, [2]int{0, 0}}},
		// A materialized level over 7 fused children.
		{"default", tree{67, 67, 67, 17, "fused1", 7, [2]int{1, 0}}, tree{135, 135, 135, 17, "fused2", 7, [2]int{1, 0}}},
		// The same, odd_update's tree in miniature.
		{"default", tree{127, 127, 127, 40, "fused1", 7, [2]int{1, 0}}, tree{255, 255, 255, 40, "fused2", 7, [2]int{1, 0}}},
		// Rectangular, every dimension odd; only k odd.
		{"default", tree{35, 27, 41, 21, "fused1", 1, [2]int{0, 0}}, tree{35, 27, 41, 21, "fused1", 1, [2]int{0, 0}}},
		{"default", tree{34, 19, 34, 17, "fused1", 1, [2]int{0, 0}}, tree{34, 19, 34, 17, "fused1", 1, [2]int{0, 0}}},
		// Only k odd below a STRASSEN1 level, which pads too.
		{"default", tree{68, 67, 68, 17, "fused1", 7, [2]int{0, 0}}, tree{136, 135, 136, 17, "fused2", 7, [2]int{0, 0}}},
		// A 3×2×3 grid.
		{"323", tree{29, 17, 29, 10, "fused1", 1, [2]int{0, 0}}, tree{29, 17, 29, 10, "fused1", 1, [2]int{0, 0}}},
	}
	for _, kc := range []func() *kernel.Packed{
		func() *kernel.Packed { return &kernel.Packed{Compat: true} },
		func() *kernel.Packed { return &kernel.Packed{Mode: kernel.ModeSIMD, MC: 16, KC: 12, NC: 16} },
	} {
		for _, c := range cases {
			tc := c.one
			if kc().FusedDestLimit() >= 4 {
				tc = c.two
			}
			for bi, beta := range []float64{0, 0.5} {
				rng := rand.New(rand.NewSource(int64(tc.m*7 + tc.k*3 + tc.n)))
				pk := kc()
				arena := memtrack.New()
				pk.SetArena(arena)
				tr := memtrack.New()
				ct := NewCountTracer()
				cfg := &Config{Kernel: pk, Criterion: Simple{Tau: tc.tau}, Algo: c.algo, Fused: FusedOn}
				plan := PlanFor(cfg, tc.m, tc.n, tc.k, beta == 0)
				run := *cfg
				run.Tracker, run.Tracer = tr, ct
				a := matrix.NewRandom(tc.m, tc.k, rng)
				b := matrix.NewRandom(tc.k, tc.n, rng)
				cm := matrix.NewRandom(tc.m, tc.n, rng)
				DGEFMM(&run, blas.NoTrans, blas.NoTrans, tc.m, tc.n, tc.k, 1,
					a.Data, a.Stride, b.Data, b.Stride, beta, cm.Data, cm.Stride)
				if ct.Count(tc.fused) != tc.nodes || ct.Count("peel") != tc.peels[bi] {
					t.Fatalf("%+v beta=%g: want %d %s and %d peel events, got %s", tc, beta, tc.nodes, tc.fused, tc.peels[bi], ct)
				}
				if plan.Words != tr.Peak() || plan.KernelWords != arena.Peak() {
					t.Errorf("%+v beta=%g: plan words/kernel words %d/%d, measured %d/%d",
						tc, beta, plan.Words, plan.KernelWords, tr.Peak(), arena.Peak())
				}
				if tr.Live() != 0 || arena.Live() != 0 {
					t.Errorf("%+v beta=%g: leaked %d workspace and %d kernel words", tc, beta, tr.Live(), arena.Live())
				}
			}
		}
	}
}

// TestVirtualPadWorkspaceGrowth pins what padding a materialized level
// virtually costs against peeling it, on an odd top level running
// STRASSEN2 over fused children (odd_update's tree before its two levels
// fused): the three temporaries grow from ⌊m/2⌋² to ⌈m/2⌉² words each, and
// nothing else moves — the fused children pack the same leaves either
// way. On a kernel that fuses two levels the tree is one level deeper
// (2047³ and 255³ where one fused level takes 1023³ and 127³), so that
// the STRASSEN2 level still runs; odd_update's own 1023³ then runs as
// one two-level fused node with no Strassen temporaries.
func TestVirtualPadWorkspaceGrowth(t *testing.T) {
	pk := &kernel.Packed{Mode: kernel.ModeSIMD}
	fusedLevels := 1
	if pk.FusedDestLimit() >= 4 {
		fusedLevels = 2
	}
	for _, tc := range []struct{ m, tau int }{{1023, 448}, {127, 40}} {
		m := (tc.m+1)<<(fusedLevels-1) - 1
		cfg := &Config{Kernel: pk, Criterion: Simple{Tau: tc.tau}, Fused: FusedOn}
		plan := PlanFor(cfg, m, m, m, false)
		hi, lo := int64(m+1)/2, int64(m)/2
		if plan.Words != 3*hi*hi || plan.Depth != 1+fusedLevels {
			t.Errorf("%d³: Words %d at depth %d, want 3·%d² = %d at depth %d", m, plan.Words, plan.Depth, hi, 3*hi*hi, 1+fusedLevels)
		}
		leaf := int(hi) >> fusedLevels
		if want := pk.LeafWorkspace(leaf, leaf, leaf); plan.KernelWords != want {
			t.Errorf("%d³: KernelWords %d, want one fused leaf of the padded blocks, %d", m, plan.KernelWords, want)
		}
		peeled := PlanFor(cfg, m-1, m-1, m-1, false) // the core a peel would run
		if got, want := plan.Words-peeled.Words, 3*(hi*hi-lo*lo); got != want || plan.KernelWords != peeled.KernelWords {
			t.Errorf("%d³: virtual padding grows Words by %d and KernelWords by %d, want %d and 0",
				m, got, plan.KernelWords-peeled.KernelWords, want)
		}
	}
	want, depth := int64(786432), 2 // 3·512²: STRASSEN2 over fused children
	if fusedLevels == 2 {
		want = 0 // one two-level fused node
	}
	if p := PlanFor(&Config{Kernel: pk, Criterion: Simple{Tau: 448}, Fused: FusedOn}, 1023, 1023, 1023, false); p.Words != want || p.Depth != depth {
		t.Errorf("1023³ Words = %d at depth %d, want %d at depth %d", p.Words, p.Depth, want, depth)
	}
}
