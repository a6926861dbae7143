package strassen

import (
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrack"
)

// skipIfAlgoPinned skips a test that asserts the default Winograd
// recursion structure (seven products per level, its trace shape, its
// memory bounds) when DGEFMM_ALGO pins a table algorithm for the whole
// process — the same convention the fused tests follow for DGEFMM_FUSED.
// The per-table CI legs run the Table* tests, which pin Config.Algo
// explicitly and stay valid under any ambient selection.
func skipIfAlgoPinned(t *testing.T) {
	t.Helper()
	if sel := (&Config{}).AlgoSelection(); sel != "default" {
		t.Skipf("DGEFMM_ALGO pins %q; this test asserts the default Winograd structure", sel)
	}
}

// tableDims picks the boundary-rich shape set for one grid dimension d:
// degenerate (1), just under/over the grid, exactly divisible, and a
// divisible-plus-fringe size, so every peel remainder class is exercised.
func tableDims(d int) []int {
	set := []int{1, d - 1, d, d + 1, 2 * d, 2*d + 1}
	out := set[:0]
	seen := map[int]bool{}
	for _, v := range set {
		if v >= 1 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestAlgoOracleExhaustive is the per-table verification-matrix leg: every
// registered coefficient table, driven through the generic executor, must
// match the naive oracle across all transpose, sign, and fringe
// combinations on a small shape box. CI runs one table per matrix entry
// via -run 'TestAlgoOracleExhaustive/<table>'.
func TestAlgoOracleExhaustive(t *testing.T) {
	for _, tbl := range algo.Tables() {
		tbl := tbl
		t.Run(tbl.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + tbl.R)))
			cfg := &Config{
				Kernel:    blas.NaiveKernel{},
				Criterion: Simple{Tau: 2},
				Algo:      tbl.Name,
			}
			transposes := []blas.Transpose{blas.NoTrans, blas.Trans}
			scalars := [][2]float64{{1, 0}, {1, 1}, {-2, 0.5}}
			for _, m := range tableDims(tbl.M) {
				for _, k := range tableDims(tbl.K) {
					for _, n := range tableDims(tbl.N) {
						for _, ta := range transposes {
							for _, tb := range transposes {
								for _, ab := range scalars {
									runCase(t, cfg, ta, tb, m, n, k, ab[0], ab[1], rng)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestTableFusedDifferential exercises the generalized fused driver: each
// table whose term structure fits the kernel's fan-out limit must run a
// fused level (the trace shows fused1) at the deepest level and still
// match the oracle, on both grid-divisible and fringe shapes.
func TestTableFusedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, tbl := range algo.Tables() {
		tbl := tbl
		t.Run(tbl.Name, func(t *testing.T) {
			pk := &kernel.Packed{MC: 16, KC: 12, NC: 16}
			if !tableFusable(tbl, pk.FusedDestLimit()) {
				t.Skipf("table %s exceeds the kernel fan-out limit", tbl.Name)
			}
			cfg := &Config{
				Kernel:    pk,
				Criterion: Simple{Tau: 8},
				Fused:     FusedOn,
				Algo:      tbl.Name,
			}
			shapes := [][3]int{
				{6 * tbl.M, 6 * tbl.K, 6 * tbl.N},
				{6*tbl.M + 1, 6*tbl.K + 1, 6*tbl.N + 1},
			}
			for _, dims := range shapes {
				m, k, n := dims[0], dims[1], dims[2]
				ct := NewCountTracer()
				cfg.Tracer = ct
				a := matrix.NewRandom(m, k, rng)
				b := matrix.NewRandom(k, n, rng)
				c := matrix.NewRandom(m, n, rng)
				want := refMul(blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.5, c)
				got := c.Clone()
				DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1.5,
					a.Data, a.Stride, b.Data, b.Stride, 0.5, got.Data, got.Stride)
				if d := matrix.MaxAbsDiff(got, want); d > tol(k) {
					t.Fatalf("(%d,%d,%d): maxdiff %g", m, k, n, d)
				}
				if ct.Count("fused1") == 0 {
					t.Fatalf("(%d,%d,%d): fused driver never engaged", m, k, n)
				}
			}
		})
	}
}

// TestDefaultPathUnchanged pins the compatibility contract: with no -algo
// selection (and with selections that resolve to the default), DGEFMM
// resolves to the legacy hand-coded Winograd path (nil table) and its
// output is bit-for-bit identical across the equivalent spellings.
func TestDefaultPathUnchanged(t *testing.T) {
	skipIfAlgoPinned(t)
	for _, name := range []string{"", "default", algo.DefaultName} {
		cfg := &Config{Algo: name}
		if tbl := cfg.resolveAlgo(64, 64, 64); tbl != nil {
			t.Errorf("Algo=%q resolved to table %s, want legacy path", name, tbl.Name)
		}
	}
	// Auto-selection landing on the default table also takes the legacy path.
	auto := &Config{Algo: AlgoAuto}
	if tbl := auto.resolveAlgo(512, 512, 512); tbl != nil {
		t.Errorf("auto on square shapes resolved to %s, want legacy path", tbl.Name)
	}

	rng := rand.New(rand.NewSource(5))
	m, k, n := 37, 29, 41
	a := matrix.NewRandom(m, k, rng)
	b := matrix.NewRandom(k, n, rng)
	c := matrix.NewRandom(m, n, rng)
	var ref *matrix.Dense
	for _, name := range []string{"", "default", algo.DefaultName} {
		cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Algo: name}
		got := c.Clone()
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1.5,
			a.Data, a.Stride, b.Data, b.Stride, 0.5, got.Data, got.Stride)
		if ref == nil {
			ref = got
			continue
		}
		if d := matrix.MaxAbsDiff(got, ref); d != 0 {
			t.Errorf("Algo=%q differs from unset by %g", name, d)
		}
	}
}

// TestAlgoPrecedence: an explicit Config.Algo beats DGEFMM_ALGO, which
// beats the default, and an explicit "default" still beats the
// environment — the PR 5 dispatch-policy contract.
func TestAlgoPrecedence(t *testing.T) {
	for _, tc := range []struct {
		cfg  string
		env  string
		want string
	}{
		{"", "", ""},
		{"", "323", "323"},
		{"", "auto", AlgoAuto},
		{"333", "323", "333"},
		{"default", "323", algo.DefaultName},
		{"auto", "323", AlgoAuto},
	} {
		cfg := &Config{Algo: tc.cfg}
		if got := cfg.algoNameFor(tc.env); got != tc.want {
			t.Errorf("Algo=%q env=%q: resolved %q, want %q", tc.cfg, tc.env, got, tc.want)
		}
	}
	if got := normalizeEnvAlgo("bogus-table"); got != "" {
		t.Errorf("normalizeEnvAlgo(bogus) = %q, want ignored", got)
	}
	if _, err := ParseAlgo("no-such-algo"); err == nil {
		t.Error("ParseAlgo(no-such-algo) succeeded, want error")
	}
	for in, want := range map[string]string{
		"": "", "default": "", " Auto ": AlgoAuto, "323": "323", "WINOGRAD": "winograd",
	} {
		if got, err := ParseAlgo(in); err != nil || got != want {
			t.Errorf("ParseAlgo(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
}

// TestPlanForTables asserts the workspace simulation stays exact for
// non-default tables: Plan.Words equals the measured memtrack peak and
// Plan.KernelWords equals the measured kernel-arena peak, to the word, for
// the rectangular ⟨3,2,3⟩ and square ⟨3,3,3⟩ tables at two recursion
// depths each.
func TestPlanForTables(t *testing.T) {
	type tcase struct {
		algo string
		crit Criterion
		dims [3]int
	}
	cases := []tcase{
		// One and two table levels, divisible and fringe shapes.
		{"323", Simple{Tau: 8}, [3]int{18, 8, 18}},
		{"323", Simple{Tau: 4}, [3]int{27, 8, 27}},
		{"323", Simple{Tau: 8}, [3]int{19, 9, 20}},
		{"333", Simple{Tau: 8}, [3]int{18, 18, 18}},
		{"333", Simple{Tau: 4}, [3]int{27, 27, 27}},
		{"333", Simple{Tau: 8}, [3]int{20, 19, 21}},
	}
	for _, tc := range cases {
		for _, beta := range []float64{0, 0.5} {
			rng := rand.New(rand.NewSource(int64(tc.dims[0] + tc.dims[1])))
			m, k, n := tc.dims[0], tc.dims[1], tc.dims[2]
			cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: tc.crit, Algo: tc.algo}
			run := *cfg
			tr := memtrack.New()
			run.Tracker = tr
			a := matrix.NewRandom(m, k, rng)
			b := matrix.NewRandom(k, n, rng)
			c := matrix.NewRandom(m, n, rng)
			DGEFMM(&run, blas.NoTrans, blas.NoTrans, m, n, k, 1,
				a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
			plan := PlanFor(cfg, m, n, k, beta == 0)
			if plan.Algo != tc.algo {
				t.Errorf("algo=%s dims=%v: plan.Algo = %q", tc.algo, tc.dims, plan.Algo)
			}
			if got, want := plan.Words, tr.Peak(); got != want {
				t.Errorf("algo=%s dims=%v beta=%g: plan words %d != measured peak %d",
					tc.algo, tc.dims, beta, got, want)
			}
		}
	}
}

// TestPlanForTablesKernelWords covers the packed-kernel arena half of the
// simulation, including the fused driver where the kernel's
// FusedDestLimit permits fusion: KernelWords must equal the arena peak
// exactly, and the arena must drain.
func TestPlanForTablesKernelWords(t *testing.T) {
	for _, tc := range []struct {
		algo  string
		fused FusedMode
		crit  Criterion
		dims  [3]int
	}{
		{"323", FusedOff, Simple{Tau: 8}, [3]int{18, 8, 18}},
		{"323", FusedOn, Simple{Tau: 8}, [3]int{18, 8, 18}},
		{"323", FusedOn, Simple{Tau: 4}, [3]int{27, 8, 28}},
		{"333", FusedOff, Simple{Tau: 8}, [3]int{18, 18, 18}},
		{"333", FusedOn, Simple{Tau: 8}, [3]int{18, 18, 18}},
		{"333", FusedOn, Simple{Tau: 4}, [3]int{28, 27, 27}},
	} {
		rng := rand.New(rand.NewSource(int64(tc.dims[0] * tc.dims[2])))
		m, k, n := tc.dims[0], tc.dims[1], tc.dims[2]
		pk := &kernel.Packed{MC: 16, KC: 12, NC: 16}
		arena := memtrack.New()
		pk.SetArena(arena)
		cfg := &Config{Kernel: pk, Criterion: tc.crit, Fused: tc.fused, Algo: tc.algo}
		a := matrix.NewRandom(m, k, rng)
		b := matrix.NewRandom(k, n, rng)
		c := matrix.NewRandom(m, n, rng)
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1,
			a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		plan := PlanFor(cfg, m, n, k, true)
		if got, want := plan.KernelWords, arena.Peak(); got != want {
			t.Errorf("algo=%s fused=%v dims=%v: kernel words %d != arena peak %d",
				tc.algo, tc.fused, tc.dims, got, want)
		}
		if live := arena.Live(); live != 0 {
			t.Errorf("algo=%s fused=%v dims=%v: arena leak, %d words live",
				tc.algo, tc.fused, tc.dims, live)
		}
	}
}
