package strassen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// TestVirtualPadEligibility pins the eligibility policy.padsVirtually
// derives for every built-in program and every table's programs, per
// dimension that falls short of the grid, on a 32³ level whose children
// (16³, τ = 8) are fused levels and so accept any overhang. Eligibility
// is derived from each program's ops; an edit that flips it fails here.
// STRASSEN1 and its β ≠ 0 fold fail (b) where C blocks overhang in m or
// n (C12 ← C12 + C21 needs the row C21 lacks, C21 ← C22 − C11 − C21 the
// column C22 lacks); with only k short no C block overhangs and they pad.
// Every other program reads a written C block only into itself.
func TestVirtualPadEligibility(t *testing.T) {
	shorts := []struct {
		name    string
		m, k, n int
	}{{"m", 31, 32, 32}, {"k", 32, 31, 32}, {"n", 32, 32, 31}, {"all", 31, 31, 31}}
	type entry struct {
		path     string // Config.Algo of the policy the program runs under
		prog     *program
		betaZero bool
		pads     string // the shortfalls (by name) on which it pads
	}
	const always = "m k n all"
	entries := map[string]entry{
		"strassen1":      {algo.DefaultName, strassen1, true, "k"},
		"strassen1 fold": {algo.DefaultName, strassen1General, false, "k"},
		"strassen2":      {algo.DefaultName, strassen2, false, always},
		"original":       {algo.DefaultName, original, false, always},
		"parallel/1":     {algo.DefaultName, programsFor(algo.Default()).dag(1), true, always},
		"parallel/2":     {algo.DefaultName, programsFor(algo.Default()).dag(2), true, always},
	}
	for _, name := range AlgoNames() {
		tbl, _ := algo.ByName(name)
		entries["table/"+name] = entry{name, programsFor(tbl).seq, false, always}
		entries["fused1/"+name] = entry{name, programsFor(tbl).fused, false, always}
	}
	for name, e := range entries {
		cfg := &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: 8}, Algo: e.path, Fused: FusedOn}
		var pads []string
		for _, s := range shorts {
			pol := cfg.policy(s.m, s.k, s.n, 0)
			if pol.programPads(e.prog, s.m, s.k, s.n, e.betaZero, 0, full(s.m, s.k, s.n)) {
				pads = append(pads, s.name)
			}
		}
		if got := fmt.Sprint(pads); got != fmt.Sprint(strings.Fields(e.pads)) {
			t.Errorf("%s pads virtually on shortfalls %s, want [%s]", name, got, e.pads)
		}
	}

	// (a): without fused hooks no level pads virtually.
	for _, cfg := range []*Config{
		{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: 8}, Fused: FusedOff},
		{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}},
	} {
		if pol := cfg.policy(31, 31, 31, 0); pol.padsVirtually(31, 31, 31, false, 0, full(31, 31, 31)) {
			t.Errorf("kernel %s fused=%v pads virtually without hooks", cfg.Kernel.Name(), cfg.Fused)
		}
	}

	// (c): a DAG level's β = 0 products are materialized STRASSEN1 levels
	// (τ = 4 on a 32-wide level). The DAG writes each product into a whole
	// temporary, so a child whose own shape is even stores all of its C and
	// accepts its overhanging A block; one odd in m does not, and the DAG
	// level peels.
	cfg := &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: 4}, Fused: FusedOn}
	for _, tc := range []struct {
		m    int
		pads bool
	}{{31, true}, {29, false}} {
		pol := cfg.policy(tc.m, 32, 32, 0)
		pol.dagLevels, pol.lanes = 1, 2
		if got := pol.padsVirtually(tc.m, 32, 32, false, 0, full(tc.m, 32, 32)); got != tc.pads {
			t.Errorf("DAG level on %d×32×32 over STRASSEN1 children pads virtually: %v, want %v", tc.m, got, tc.pads)
		}
	}
}

// TestNonFiniteOddShapes: ±Inf and NaN in A, B and C, with every other
// entry finite and moderate so nothing overflows. On even and odd shapes,
// through the peel path, virtually padded fused and materialized levels
// and a 2-worker DAG, every entry DGEMM makes non-finite is non-finite in
// DGEFMM too. DGEFMM may make further entries NaN (Inf − Inf in its sums,
// 0·Inf against virtual padding's zeros), never fewer: an entry of A or B
// reaches every C entry DGEMM multiplies it into through some product,
// and a product with a non-finite operand entry is non-finite in that
// whole row or column.
func TestNonFiniteOddShapes(t *testing.T) {
	w2 := sched.New(2, 1)
	defer w2.Close()
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	configs := []struct {
		name string
		cfg  func(m int) *Config
		// want is a trace action the configuration must run on odd shapes,
		// at β ≠ 0 and at β = 0 (where the materialized level is STRASSEN1,
		// which peels).
		want, wantZero string
	}{
		{"peel", func(m int) *Config {
			return &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: (m + 3) / 4}, Fused: FusedOff}
		}, "peel", "peel"},
		{"fused-pad", func(m int) *Config {
			return &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: (m + 1) / 2}, Fused: FusedOn}
		}, "fused1", "fused1"},
		{"materialized-pad", func(m int) *Config {
			return &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: (m + 3) / 4}, Fused: FusedOn}
		}, "strassen2", "peel"},
		{"dag-w2", func(m int) *Config {
			return &Config{Kernel: &kernel.Packed{Mode: kernel.ModeSIMD, MC: 16, KC: 12, NC: 16},
				Criterion: Simple{Tau: (m + 3) / 4}, Fused: FusedOn, Sched: w2, SchedLevels: 1}
		}, "parallel", "parallel"},
		{"table-323", func(m int) *Config {
			return &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: (m + 8) / 9}, Algo: "323", Fused: FusedOn}
		}, "table", "table"},
	}
	seed := int64(0)
	for _, dims := range [][3]int{{40, 40, 40}, {39, 39, 39}, {41, 35, 37}} {
		m, k, n := dims[0], dims[1], dims[2]
		for _, cc := range configs {
			for _, beta := range []float64{0, 0.25, 1} {
				seed++
				rng := rand.New(rand.NewSource(seed))
				a := matrix.NewRandom(m, k, rng)
				b := matrix.NewRandom(k, n, rng)
				c := matrix.NewRandom(m, n, rng)
				// Specials at random entries and on the last row and column,
				// which fall in the overhanging blocks of a padded level.
				for _, x := range []*matrix.Dense{a, b, c} {
					for i, v := range specials {
						x.Set(rng.Intn(x.Rows), rng.Intn(x.Cols), v)
						x.Set(x.Rows-1, rng.Intn(x.Cols), specials[(i+1)%3])
						x.Set(rng.Intn(x.Rows), x.Cols-1, specials[(i+2)%3])
					}
				}
				ref := c.Clone()
				blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 0.75, a.Data, a.Stride, b.Data, b.Stride, beta, ref.Data, ref.Stride)
				got := c.Clone()
				cfg := cc.cfg(m)
				tr := NewCountTracer()
				cfg.Tracer = tr
				DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 0.75, a.Data, a.Stride, b.Data, b.Stride, beta, got.Data, got.Stride)
				what := fmt.Sprintf("%s %d×%d×%d β=%g", cc.name, m, k, n, beta)
				want := cc.want
				if beta == 0 {
					want = cc.wantZero
				}
				if m%2 == 1 && tr.Count(want) == 0 {
					t.Fatalf("%s: no %s level ran: %s", what, want, tr)
				}
				for j := 0; j < n; j++ {
					for i := 0; i < m; i++ {
						w, g := ref.At(i, j), got.At(i, j)
						if (math.IsInf(w, 0) || math.IsNaN(w)) && !math.IsInf(g, 0) && !math.IsNaN(g) {
							t.Fatalf("%s: C(%d,%d) is %g under DGEMM, finite %g under DGEFMM", what, i, j, w, g)
						}
					}
				}
			}
		}
	}
}
