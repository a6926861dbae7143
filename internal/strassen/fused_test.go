package strassen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/phase"
	"repro/internal/sched"
)

// --- Record-table algebra -------------------------------------------------

// applyFusedRecords executes a record table naively — materialize Ã and B̃,
// multiply exactly, accumulate coeff·M into each destination — over a g×g
// block partition of small integer matrices, where float64 arithmetic is
// exact. Any algebra error in the tables produces an integer difference.
func applyFusedRecords(recs []fusedRecord, g int, a, b *matrix.Dense) *matrix.Dense {
	mq, kq, nq := a.Rows/g, a.Cols/g, b.Cols/g
	c := matrix.NewDense(a.Rows, b.Cols)
	for _, rec := range recs {
		at := matrix.NewDense(mq, kq)
		for _, t := range rec.a {
			for j := 0; j < kq; j++ {
				for i := 0; i < mq; i++ {
					at.Set(i, j, at.At(i, j)+t.g*a.At(t.r*mq+i, t.c*kq+j))
				}
			}
		}
		bt := matrix.NewDense(kq, nq)
		for _, t := range rec.b {
			for j := 0; j < nq; j++ {
				for i := 0; i < kq; i++ {
					bt.Set(i, j, bt.At(i, j)+t.g*b.At(t.r*kq+i, t.c*nq+j))
				}
			}
		}
		for _, t := range rec.dst {
			for j := 0; j < nq; j++ {
				for i := 0; i < mq; i++ {
					var dot float64
					for l := 0; l < kq; l++ {
						dot += at.At(i, l) * bt.At(l, j)
					}
					c.Set(t.r*mq+i, t.c*nq+j, c.At(t.r*mq+i, t.c*nq+j)+t.g*dot)
				}
			}
		}
	}
	return c
}

// intRandom fills a matrix with small integers so every product and sum in
// the record-table check is exact in float64.
func intRandom(rows, cols int, rng *rand.Rand) *matrix.Dense {
	m := matrix.NewDense(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			m.Set(i, j, float64(rng.Intn(19)-9))
		}
	}
	return m
}

// TestFusedTablesExact verifies the records derived from the classic
// table (7 records) and from its composition with itself (49 records on
// the 4×4 grid) reproduce the plain product exactly on integer matrices —
// the algebraic correctness of the record derivation the fused levels
// stream to the kernel — and that the composed records do so through the
// kernel's packers and write-out too.
func TestFusedTablesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	level1 := tableFusedRecords(classic)
	level2 := tableFusedRecords(algo.MustCompose("classic2", classic, classic))
	if len(level1) != 7 || len(level2) != 49 {
		t.Fatalf("derived %d and %d records, want 7 and 49", len(level1), len(level2))
	}
	cases := []struct {
		recs []fusedRecord
		g    int
		dims [3]int
	}{
		{level1, 2, [3]int{8, 6, 10}},
		{level1, 2, [3]int{2, 2, 2}},
		{level2, 4, [3]int{16, 12, 8}},
		{level2, 4, [3]int{4, 4, 4}},
	}
	for _, tc := range cases {
		m, k, n := tc.dims[0], tc.dims[1], tc.dims[2]
		a := intRandom(m, k, rng)
		b := intRandom(k, n, rng)
		got := applyFusedRecords(tc.recs, tc.g, a, b)
		want := matrix.NewDense(m, n)
		blas.NaiveKernel{}.MulAdd(blas.NoTrans, blas.NoTrans, m, n, k, 1,
			a.Data, a.Stride, b.Data, b.Stride, want.Data, want.Stride)
		requireExact(t, fmt.Sprintf("%d records g=%d dims=%v", len(tc.recs), tc.g, tc.dims), got, want)
	}

	// The composed records through the kernel: a two-level fused node on
	// 64×64 blocks (full tiles, four destinations written from registers
	// where the tile has the native write-out) and on clipped 63×61×62
	// ones, exact on integers.
	for _, dims := range [][3]int{{256, 256, 256}, {251, 243, 247}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := intRandom(m, k, rng)
		b := intRandom(k, n, rng)
		want := matrix.NewDense(m, n)
		blas.NaiveKernel{}.MulAdd(blas.NoTrans, blas.NoTrans, m, n, k, 1,
			a.Data, a.Stride, b.Data, b.Stride, want.Data, want.Stride)
		pk := &kernel.Packed{}
		ct := NewCountTracer()
		cfg := &Config{Kernel: twoLevelKernel{pk}, Criterion: Simple{Tau: 64}, Fused: FusedOn, Tracer: ct}
		got := matrix.NewDense(m, n)
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0, got.Data, got.Stride)
		if ct.Count("fused2") != 1 || ct.Total() != 1 {
			t.Fatalf("dims=%v: want one fused2 node, got %s", dims, ct)
		}
		requireExact(t, fmt.Sprintf("fused2 through the %s tile, dims=%v", pk.ISA(), dims), got, want)
	}
}

// requireExact fails unless got equals want element for element.
func requireExact(t *testing.T, what string, got, want *matrix.Dense) {
	t.Helper()
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: exact mismatch at (%d,%d): %g vs %g", what, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// products is how many products the kernel has run (Counters).
func products(pk *kernel.Packed) int64 {
	p, _, _ := pk.Counters()
	return p
}

// twoLevelKernel reports a fused write-out limit of four, so two levels
// fuse as one node on any tile: natively on the AVX2 tile, through the
// buffered scatter elsewhere. It lets the two-level tests run on every
// host.
type twoLevelKernel struct{ *kernel.Packed }

func (twoLevelKernel) FusedDestLimit() int { return 4 }

// --- Mode resolution ------------------------------------------------------

func TestParseFusedMode(t *testing.T) {
	for in, want := range map[string]FusedMode{
		"": FusedAuto, "auto": FusedAuto, "on": FusedOn, "off": FusedOff,
		" ON ": FusedOn, "Off": FusedOff,
	} {
		got, err := ParseFusedMode(in)
		if err != nil || got != want {
			t.Errorf("ParseFusedMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFusedMode("bogus"); err == nil {
		t.Error("ParseFusedMode(bogus) succeeded, want error")
	}
}

// TestFusedModePrecedence: an explicit Config.Fused beats DGEFMM_FUSED,
// which beats auto-detection — the PR 5 dispatch-policy ordering.
func TestFusedModePrecedence(t *testing.T) {
	cases := []struct {
		cfg  FusedMode
		env  string
		want FusedMode
	}{
		{FusedAuto, "", FusedAuto},
		{FusedAuto, "auto", FusedAuto},
		{FusedAuto, "on", FusedOn},
		{FusedAuto, "off", FusedOff},
		{FusedOn, "off", FusedOn},
		{FusedOff, "on", FusedOff},
	}
	for _, tc := range cases {
		cfg := &Config{Fused: tc.cfg}
		if got := cfg.fusedModeFor(tc.env); got != tc.want {
			t.Errorf("Fused=%v env=%q: mode %v, want %v", tc.cfg, tc.env, got, tc.want)
		}
	}
	if normalizeEnvFused("bogus") != "" {
		t.Error("normalizeEnvFused(bogus) should be ignored")
	}
	if normalizeEnvFused(" On ") != "on" {
		t.Error("normalizeEnvFused should trim and lowercase")
	}
}

// TestFusedActive: active exactly when the mode is not off, the schedule is
// auto, and the kernel implements the hooks.
func TestFusedActive(t *testing.T) {
	if env := envFused(); env != "" {
		// envFused latches on first read, so t.Setenv cannot restore
		// auto-detection once the process env pins a mode; the CI fused
		// legs run this suite under DGEFMM_FUSED=on and =off.
		t.Skipf("DGEFMM_FUSED=%s overrides the auto-detection under test", env)
	}
	pk := &kernel.Packed{}
	if !(&Config{Kernel: pk}).FusedActive() {
		t.Error("packed kernel + auto schedule should be fused-active")
	}
	if (&Config{Kernel: pk, Fused: FusedOff}).FusedActive() {
		t.Error("FusedOff must deactivate")
	}
	if (&Config{Kernel: pk, Schedule: ScheduleStrassen1}).FusedActive() {
		t.Error("pinned schedule must deactivate")
	}
	if (&Config{Kernel: blas.NaiveKernel{}}).FusedActive() {
		t.Error("hook-less kernel must deactivate")
	}
}

// --- Engagement and differential ------------------------------------------

// fusedTestConfig returns a config whose criterion puts 32×32×32 exactly one
// level above the cutoff, so a fused level replaces the whole recursion
// (and 64 runs a materialized level over seven fused children). The kernel
// pins the scalar tile so the kernel path is the same on every host.
func fusedTestConfig(mode FusedMode) (*Config, *kernel.Packed) {
	pk := &kernel.Packed{MC: 16, KC: 12, NC: 16, Mode: kernel.ModeScalar}
	return &Config{Kernel: pk, Criterion: Simple{Tau: 16}, Fused: mode}, pk
}

// TestFusedEngagementTrace: the trace shows fused1 exactly where the
// criterion predicts — only on the last level — the kernel counts one
// product per fused record and per leaf, and pinned schedules or FusedOff
// never engage. At β = 0
// (every run here) an odd level pads virtually when the level at its
// rounded-up shape is fused; a materialized one is STRASSEN1, which peels
// where m or n is odd (TestVirtualPadEligibility).
func TestFusedEngagementTrace(t *testing.T) {
	skipIfAlgoPinned(t)
	rng := rand.New(rand.NewSource(61))
	tau := 16
	run := func(mode FusedMode, sched Schedule, n int) (*CountTracer, *kernel.Packed) {
		cfg, pk := fusedTestConfig(mode)
		cfg.Criterion = Simple{Tau: tau}
		cfg.Schedule = sched
		tr := NewCountTracer()
		cfg.Tracer = tr
		a := matrix.NewRandom(n, n, rng)
		b := matrix.NewRandom(n, n, rng)
		c := matrix.NewDense(n, n)
		Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
		if got, want := products(pk), int64(7*tr.Count("fused1")+tr.Count("base")); got != want {
			t.Errorf("n=%d fused=%v schedule=%v: kernel ran %d products, trace has %d", n, mode, sched, got, want)
		}
		return tr, pk
	}

	if tr, pk := run(FusedOn, ScheduleAuto, 64); tr.Count("strassen1") != 1 || tr.Count("fused1") != 7 || products(pk) != 49 {
		t.Errorf("n=64: strassen1=%d fused1=%d kernel calls=%d, want 1/7/49",
			tr.Count("strassen1"), tr.Count("fused1"), products(pk))
	}
	if tr, pk := run(FusedOn, ScheduleAuto, 32); tr.Count("fused1") != 1 || products(pk) != 7 {
		t.Errorf("n=32: fused1 events=%d kernel calls=%d, want 1/7",
			tr.Count("fused1"), products(pk))
	}
	// Auto-detection engages the same way — only assertable when the
	// process env leaves auto in charge (see TestFusedActive).
	if envFused() == "" {
		if tr, pk := run(FusedAuto, ScheduleAuto, 64); tr.Count("fused1") != 7 || products(pk) != 49 {
			t.Errorf("n=64 auto: fused1 events=%d kernel calls=%d, want 7/49",
				tr.Count("fused1"), products(pk))
		}
	}
	if tr, pk := run(FusedOff, ScheduleAuto, 64); tr.Count("fused1") != 0 || tr.Count("base") != 49 || products(pk) != 49 {
		t.Errorf("FusedOff engaged: events=%d leaves=%d products=%d", tr.Count("fused1"), tr.Count("base"), products(pk))
	}
	if tr, pk := run(FusedOn, ScheduleStrassen1, 64); tr.Count("fused1") != 0 || tr.Count("base") != 49 || products(pk) != 49 {
		t.Errorf("pinned strassen1 engaged fused: events=%d leaves=%d products=%d", tr.Count("fused1"), tr.Count("base"), products(pk))
	}
	// Odd sizes above a materialized level peel first, then the even core
	// fuses.
	if tr, _ := run(FusedOn, ScheduleAuto, 65); tr.Count("peel") == 0 || tr.Count("fused1") == 0 {
		t.Errorf("n=65: want peel + fused, got peel=%d fused1=%d", tr.Count("peel"), tr.Count("fused1"))
	}
	fixups := func(tr *CountTracer) int {
		return tr.Count("fixup-ger") + tr.Count("fixup-col") + tr.Count("fixup-row")
	}
	// n=33 at τ=16: the padded children (17) would recurse, so the level at
	// the rounded-up shape is a materialized STRASSEN1 level, which cannot
	// pad, and it peels onto a fused 32 core, repairing the border with
	// three fixups.
	if tr, pk := run(FusedOn, ScheduleAuto, 33); tr.Count("peel") != 1 || tr.Count("fused1") != 1 || fixups(tr) != 3 || products(pk) != 7 {
		t.Errorf("n=33 τ=16: peel=%d fused1=%d fixups=%d calls=%d, want 1/1/3/7",
			tr.Count("peel"), tr.Count("fused1"), fixups(tr), products(pk))
	}
	// n=33 at τ=17: the padded children are base cases, so the odd level
	// runs fused on 17×17 blocks padded virtually — no peel, no fixups.
	tau = 17
	if tr, pk := run(FusedOn, ScheduleAuto, 33); tr.Count("fused1") != 1 || tr.Count("peel") != 0 || fixups(tr) != 0 || products(pk) != 7 {
		t.Errorf("n=33 τ=17: fused1=%d peel=%d fixups=%d calls=%d, want 1/0/0/7",
			tr.Count("fused1"), tr.Count("peel"), fixups(tr), products(pk))
	}
}

// TestFusedDifferential compares the fused driver against the unfused
// materialized schedules and the naive oracle across shapes (odd dims force
// peel interplay), transposes, alpha and beta. Fused runs Strassen's 1969
// construction where unfused runs Winograd's, so equality is numerical, not
// bitwise: both must sit within a forward-error band of the oracle, and
// within each other by the same margin.
func TestFusedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	shapes := [][3]int{
		{64, 64, 64},   // materialized level over fused children
		{32, 32, 32},   // one fused level
		{65, 33, 97},   // peeling above the fused core
		{48, 96, 24},   // rectangular
		{66, 34, 62},   // even but ragged halves
		{128, 64, 128}, // materialized level above a fused level
	}
	for _, ta := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		for _, tb := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			for _, s := range shapes {
				m, k, n := s[0], s[1], s[2]
				for _, beta := range []float64{0, 1.25} {
					alpha := -1.5
					ar, ac := m, k
					if ta.IsTrans() {
						ar, ac = k, m
					}
					br, bc := k, n
					if tb.IsTrans() {
						br, bc = n, k
					}
					a := matrix.NewRandom(ar, ac, rng)
					b := matrix.NewRandom(br, bc, rng)
					c0 := matrix.NewRandom(m, n, rng)

					fused := c0.Clone()
					cfgOn, _ := fusedTestConfig(FusedOn)
					DGEFMM(cfgOn, ta, tb, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, fused.Data, fused.Stride)

					unfused := c0.Clone()
					cfgOff, _ := fusedTestConfig(FusedOff)
					DGEFMM(cfgOff, ta, tb, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, unfused.Data, unfused.Stride)

					oracle := c0.Clone()
					blas.Dgemm(ta, tb, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, oracle.Data, oracle.Stride)

					// Strassen's error bound grows by a constant factor per
					// level; inputs are O(1), so an absolute band scaled by k
					// covers both drivers and their difference.
					tol := 1e-12 * float64(k+8)
					for j := 0; j < n; j++ {
						for i := 0; i < m; i++ {
							if d := math.Abs(fused.At(i, j) - oracle.At(i, j)); d > tol {
								t.Fatalf("ta=%v tb=%v %v beta=%g: |fused-oracle|=%g > %g at (%d,%d)",
									ta, tb, s, beta, d, tol, i, j)
							}
							if d := math.Abs(fused.At(i, j) - unfused.At(i, j)); d > tol {
								t.Fatalf("ta=%v tb=%v %v beta=%g: |fused-unfused|=%g > %g at (%d,%d)",
									ta, tb, s, beta, d, tol, i, j)
							}
						}
					}
				}
			}
		}
	}
}

// TestFusedPlanMatchesMeasured is the acceptance invariant: with the fused
// driver active, Plan.Words and Plan.KernelWords still equal the measured
// memtrack peaks exactly — a fused level allocates no Strassen temporaries
// and exactly the kernel's two packed panels.
func TestFusedPlanMatchesMeasured(t *testing.T) {
	shapes := [][3]int{{64, 64, 64}, {32, 32, 32}, {65, 33, 97}, {48, 96, 24}, {128, 64, 128}, {96, 17, 80}}
	for _, mode := range []FusedMode{FusedAuto, FusedOn, FusedOff} {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			for _, beta := range []float64{0, 0.5} {
				rng := rand.New(rand.NewSource(int64(m + k + n)))
				pk := &kernel.Packed{MC: 16, KC: 12, NC: 16}
				arena := memtrack.New()
				pk.SetArena(arena)
				tr := memtrack.New()
				run := &Config{Kernel: pk, Criterion: Simple{Tau: 16}, Fused: mode, Tracker: tr}
				a := matrix.NewRandom(m, k, rng)
				b := matrix.NewRandom(k, n, rng)
				c := matrix.NewRandom(m, n, rng)
				DGEFMM(run, blas.NoTrans, blas.NoTrans, m, n, k, 1,
					a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
				cfg := &Config{Kernel: pk, Criterion: Simple{Tau: 16}, Fused: mode}
				plan := PlanFor(cfg, m, n, k, beta == 0)
				if got, want := plan.Words, tr.Peak(); got != want {
					t.Errorf("mode=%v dims=%v beta=%g: plan words %d != measured peak %d",
						mode, s, beta, got, want)
				}
				if got, want := plan.KernelWords, arena.Peak(); got != want {
					t.Errorf("mode=%v dims=%v beta=%g: plan kernel words %d != arena peak %d",
						mode, s, beta, got, want)
				}
				if live := arena.Live(); live != 0 {
					t.Errorf("mode=%v dims=%v: %d kernel words leaked", mode, s, live)
				}
			}
		}
	}
}

// TestFusedNoTemporaries pins the headline property: a multiply served
// entirely by the fused driver allocates zero Strassen workspace words.
func TestFusedNoTemporaries(t *testing.T) {
	skipIfAlgoPinned(t)
	rng := rand.New(rand.NewSource(63))
	cfg, _ := fusedTestConfig(FusedOn)
	tr := memtrack.New()
	cfg.Tracker = tr
	n := 32
	a := matrix.NewRandom(n, n, rng)
	b := matrix.NewRandom(n, n, rng)
	c := matrix.NewDense(n, n)
	Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
	if tr.Peak() != 0 {
		t.Errorf("fully fused multiply drew %d Strassen workspace words, want 0", tr.Peak())
	}
}

// TestFusedTwoLevels: where the kernel writes four destinations natively,
// a level whose grandchildren are base cases runs as one fused2 node (49
// fused products) that PlanFor and the trace count as two levels, with no
// Strassen workspace — on a 2-worker runtime too, where its one kernel
// call threads; above it a materialized level runs as before; on a kernel
// that fuses one level, a materialized level keeps its children's single
// fused level below it, with or without a runtime; FusedOff and pinned
// schedules never fuse; and the results stay within the error band of the
// oracle.
// The default configuration runs square_b0's 1024³ this way on the AVX2
// tile.
func TestFusedTwoLevels(t *testing.T) {
	skipIfAlgoPinned(t)
	w2 := sched.New(2, 1)
	defer w2.Close()
	rng := rand.New(rand.NewSource(64))
	cases := []struct {
		n     int
		mode  FusedMode
		sch   Schedule
		rt    *sched.Runtime
		trace string // the CountTracer summary
		calls int64  // products the kernel ran: fused records and leaves
		depth int
		// oneLevel runs the scalar tile's own limit, which fuses one level.
		oneLevel bool
	}{
		{64, FusedOn, ScheduleAuto, nil, "depth≤1: fused2=1", 49, 2, false},
		{128, FusedOn, ScheduleAuto, nil, "depth≤2: fused2=7 strassen1=1", 343, 3, false},
		{64, FusedOn, ScheduleAuto, w2, "depth≤1: fused2=1", 49, 2, false},
		{128, FusedOn, ScheduleAuto, w2, "depth≤2: fused2=7 strassen1=1", 343, 3, false},
		{64, FusedOn, ScheduleAuto, w2, "depth≤1: fused1=7 strassen1=1", 49, 2, true},
		{64, FusedOff, ScheduleAuto, nil, "depth≤2: base=49 strassen1=8", 49, 2, false},
		{64, FusedOn, ScheduleStrassen1, nil, "depth≤2: base=49 strassen1=8", 49, 2, false},
	}
	for _, tc := range cases {
		pk := &kernel.Packed{MC: 16, KC: 12, NC: 16}
		var kern blas.Kernel = twoLevelKernel{pk}
		if tc.oneLevel {
			pk.Mode = kernel.ModeScalar
			kern = pk
		}
		tr, ct := memtrack.New(), NewCountTracer()
		cfg := &Config{Kernel: kern, Criterion: Simple{Tau: 16}, Fused: tc.mode, Schedule: tc.sch, Tracer: ct, Tracker: tr}
		if tc.rt != nil {
			cfg.Sched = tc.rt
		}
		a := matrix.NewRandom(tc.n, tc.n, rng)
		b := matrix.NewRandom(tc.n, tc.n, rng)
		c := matrix.NewRandom(tc.n, tc.n, rng)
		want := refMul(blas.NoTrans, blas.NoTrans, -0.5, a, b, 0, c)
		Multiply(cfg, c, blas.NoTrans, blas.NoTrans, -0.5, a, b, 0)
		what := fmt.Sprintf("n=%d fused=%v schedule=%v runtime=%v one-level=%v", tc.n, tc.mode, tc.sch, tc.rt != nil, tc.oneLevel)
		if got := ct.String(); got != tc.trace || products(pk) != tc.calls {
			t.Errorf("%s: trace %q with %d products, want %q with %d", what, got, products(pk), tc.trace, tc.calls)
		}
		plan := PlanFor(cfg, tc.n, tc.n, tc.n, true)
		if plan.Depth != tc.depth || plan.Words != tr.Peak() {
			t.Errorf("%s: plan depth %d words %d, want depth %d and the measured peak %d", what, plan.Depth, plan.Words, tc.depth, tr.Peak())
		}
		if tc.trace == "depth≤1: fused2=1" && tr.Peak() != 0 {
			t.Errorf("%s: a two-level fused node drew %d Strassen words, want 0", what, tr.Peak())
		}
		if d := matrix.MaxAbsDiff(c, want); d > tol(tc.n) {
			t.Errorf("%s: maxdiff %g", what, d)
		}
	}

	// A kernel that scatters extra destinations from a buffer keeps one
	// fused level, whatever the tile.
	if (&kernel.Packed{Mode: kernel.ModeScalar}).FusedDestLimit() != 2 {
		t.Error("the scalar tile must fuse one level")
	}
	// The default configuration on square_b0's shape.
	if (&kernel.Packed{}).FusedDestLimit() >= 4 && envFused() != "off" {
		if p := PlanFor(nil, 1024, 1024, 1024, true); p.Depth != 2 || p.Words != 0 {
			t.Errorf("default 1024³ β = 0 plan: depth %d words %d, want 2 and 0", p.Depth, p.Words)
		}
	}
}

// TestFused2PackAttribution: a fused2 node charges each operand's packing
// by its terms — the 8 of its 98 operands that are one unit term to
// kernel.pack_a / kernel.pack_b (16 bytes per word), the rest to
// kernel.fused_pack ((terms+1)·8 bytes and terms−1 adds per word) — and
// the bytes equal the kernel's packed-word counters exactly.
func TestFused2PackAttribution(t *testing.T) {
	skipIfAlgoPinned(t)
	if !phase.Enabled {
		t.Skip("phase accounting compiled out (-tags phaseoff)")
	}
	var oneA, oneB, termsA, termsB, addsA, addsB int64
	for _, r := range fused2.recs {
		if len(r.a) == 1 && r.a[0].g == 1 {
			oneA++
		} else {
			termsA += int64(len(r.a) + 1)
			addsA += int64(len(r.a) - 1)
		}
		if len(r.b) == 1 && r.b[0].g == 1 {
			oneB++
		} else {
			termsB += int64(len(r.b) + 1)
			addsB += int64(len(r.b) - 1)
		}
	}
	if oneA+oneB != 8 || len(fused2.recs) != 49 {
		t.Fatalf("fused2 has %d records with %d one-term operands, want 49 and 8", len(fused2.recs), oneA+oneB)
	}
	rng := rand.New(rand.NewSource(83))
	n := 64
	pk := &kernel.Packed{}
	ct := NewCountTracer()
	cfg := &Config{Kernel: twoLevelKernel{pk}, Criterion: Simple{Tau: 16}, Fused: FusedOn, Tracer: ct}
	a := matrix.NewRandom(n, n, rng)
	b := matrix.NewRandom(n, n, rng)
	c := matrix.NewDense(n, n)
	prof := &phase.Profiler{}
	prev := phase.SetActive(prof)
	Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
	phase.SetActive(prev)
	if ct.String() != "depth≤1: fused2=1" {
		t.Fatalf("trace %s, want one fused2 node", ct)
	}
	// Every record has the same block shape, so each packs the same words.
	_, pa, pb := pk.Counters()
	wa, wb := pa/49, pb/49
	if wa*49 != pa || wb*49 != pb {
		t.Fatalf("packed words %d / %d are not 49 equal shares", pa, pb)
	}
	snap := prof.Snapshot()
	pA, pB, fp := snap[phase.KernelPackA], snap[phase.KernelPackB], snap[phase.KernelFusedPack]
	if pA.Bytes != 16*oneA*wa || pB.Bytes != 16*oneB*wb || pA.Flops != 0 || pB.Flops != 0 {
		t.Errorf("pack_a %d B, pack_b %d B, want %d and %d", pA.Bytes, pB.Bytes, 16*oneA*wa, 16*oneB*wb)
	}
	if want := 8 * (termsA*wa + termsB*wb); fp.Bytes != want || fp.Flops != addsA*wa+addsB*wb {
		t.Errorf("fused_pack %d B %d FLOPs, want %d B %d FLOPs", fp.Bytes, fp.Flops, want, addsA*wa+addsB*wb)
	}
	if words := pA.Bytes/16 + pB.Bytes/16 + (49-oneA)*wa + (49-oneB)*wb; words != pa+pb {
		t.Errorf("attributed words %d, packed %d", words, pa+pb)
	}
}
