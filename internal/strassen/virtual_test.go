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
	}
	for _, name := range AlgoNames() {
		tbl, _ := algo.ByName(name)
		entries["table/"+name] = entry{name, programsFor(tbl).seq, false, always}
		entries["fused1/"+name] = entry{name, programsFor(tbl).fused, false, always}
	}
	entries["fused2"] = entry{algo.DefaultName, fused2, true, always}
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
}

// TestNonFiniteOddShapes: ±Inf and NaN in A, B and C, with every other
// entry finite and moderate so nothing overflows. On even and odd shapes,
// through the peel path, virtually padded fused levels (one, and two fused
// as one node) and materialized levels, the default kernel's sequential
// SIMD tile and a 2-worker runtime, every entry DGEMM makes non-finite is
// non-finite in DGEFMM too. DGEFMM may make further entries NaN (Inf − Inf in its sums,
// 0·Inf against virtual padding's zeros), never fewer: an entry of A or B
// reaches every C entry DGEMM multiplies it into through some product,
// and a product with a non-finite operand entry is non-finite in that
// whole row or column.
//
// At β = 0 every configuration also runs with finite A and B over a C
// filled with NaN, sequentially (or on its own runtime) and on a 2-worker
// runtime, and must give the bits of the same call over a zero C: the
// kernel stores +0.0 in each destination at β = 0 before it writes it,
// and reads no C. The configurations cover a leaf below the cutoff, clipped
// leaves (at 40×39×40 STRASSEN1 pads k virtually, so its leaves' operands
// overhang), fused1 and fused2 nodes with clipped C blocks, and peel
// fixups that are base-case GEMMs (the ⟨3,3,3⟩ table at 41×35×37 peels
// remainders of two).
func TestNonFiniteOddShapes(t *testing.T) {
	w2 := sched.New(2, 1)
	defer w2.Close()
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	type config struct {
		name string
		cfg  func(m int) *Config
		// want is a trace action the configuration must run on odd shapes,
		// at β ≠ 0 and at β = 0 (where the materialized level is STRASSEN1,
		// which peels).
		want, wantZero string
	}
	configs := []config{
		{"below-cutoff", func(int) *Config {
			return &Config{Kernel: kernel.Default(), Criterion: Never{}}
		}, "base", "base"},
		// One level whose leaves overhang the matrices: STRASSEN2 padded
		// virtually at β ≠ 0, its leaves writing clipped C blocks, and
		// STRASSEN1 where only k is short.
		{"clipped-leaf", func(m int) *Config {
			return &Config{Kernel: destLimitKernel{&kernel.Packed{}, 1}, Criterion: Simple{Tau: (m + 1) / 2}, Fused: FusedOn}
		}, "strassen2", "peel"},
		{"peel-gemm", func(int) *Config {
			return &Config{Criterion: Simple{Tau: 8}, Algo: "333", Fused: FusedOff}
		}, "peel", "peel"},
		{"peel", func(m int) *Config {
			return &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: (m + 3) / 4}, Fused: FusedOff}
		}, "peel", "peel"},
		{"fused-pad", func(m int) *Config {
			return &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: (m + 1) / 2}, Fused: FusedOn}
		}, "fused1", "fused1"},
		{"materialized-pad", func(m int) *Config {
			return &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: (m + 3) / 4}, Fused: FusedOn}
		}, "strassen2", "peel"},
		// Three levels on a 2-worker runtime, so that a materialized level,
		// its passes threaded by column bands, runs above a kernel that
		// fuses the last two as one node.
		{"materialized-w2", func(m int) *Config {
			return &Config{Kernel: &kernel.Packed{Mode: kernel.ModeSIMD, MC: 16, KC: 12, NC: 16},
				Criterion: Simple{Tau: (m + 7) / 8}, Fused: FusedOn, Sched: w2}
		}, "strassen2", "peel"},
		// The default kernel on the sequential path: its SIMD tile where
		// the host has one, through the fused packers and write-out.
		{"default-kernel", func(m int) *Config {
			return &Config{Kernel: kernel.Default(), Criterion: Simple{Tau: (m + 1) / 2}, Fused: FusedOn}
		}, "fused1", "fused1"},
	}
	// Two levels fused as one node on blocks of ⌈m/4⌉: at m = 39 = 4·10 − 1
	// the blocks' last tile rows and columns are ragged and the last block
	// row and column clipped, so ragged and clipped tiles scatter to up to
	// four destinations. A kernel that fuses one level runs a materialized
	// level over fused children instead.
	two := &kernel.Packed{}
	wantTwo := [2]string{"fused2", "fused2"}
	if two.FusedDestLimit() < 4 {
		wantTwo = [2]string{"strassen2", "peel"}
	}
	configs = append(configs, config{"two-level-fused", func(m int) *Config {
		return &Config{Kernel: two, Criterion: Simple{Tau: (m + 3) / 4}, Fused: FusedOn}
	}, wantTwo[0], wantTwo[1]})
	// The same node on a 2-worker runtime, its kernel call threading over
	// small blocks; a kernel that fuses one level runs a materialized level
	// over fused children, as without the runtime.
	// Its kernel is pinned to ModeSIMD, so the expectation follows that
	// tile's limit, not the auto-dispatched kernel's.
	wantTwoW2 := [2]string{"fused2", "fused2"}
	if (&kernel.Packed{Mode: kernel.ModeSIMD}).FusedDestLimit() < 4 {
		wantTwoW2 = [2]string{"strassen2", "peel"}
	}
	configs = append(configs, config{"two-level-fused-w2", func(m int) *Config {
		return &Config{Kernel: &kernel.Packed{Mode: kernel.ModeSIMD, MC: 16, KC: 12, NC: 16},
			Criterion: Simple{Tau: (m + 3) / 4}, Fused: FusedOn, Sched: w2}
	}, wantTwoW2[0], wantTwoW2[1]})
	// Every non-default built-in table, recursing two levels deep, forms
	// its multi-term operands in one lin op each.
	for _, name := range []string{"323", "classic", "333", "424"} {
		tbl, _ := algo.ByName(name)
		g := tbl.M * tbl.M
		configs = append(configs, config{name: "table-" + name, want: "table", wantZero: "table", cfg: func(m int) *Config {
			return &Config{Kernel: &kernel.Packed{Compat: true}, Criterion: Simple{Tau: (m + g - 1) / g}, Algo: name, Fused: FusedOn}
		}})
	}
	seed := int64(0)
	for _, dims := range [][3]int{{40, 40, 40}, {39, 39, 39}, {41, 35, 37}, {40, 39, 40}} {
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
				if beta == 0 {
					checkNaNC(t, what, cc.cfg(m), w2, m, k, n, rng)
				}
			}
		}
	}
}

// checkNaNC runs DGEFMM at β = 0 with finite A and B over a C of NaN and
// over a zero C, sequentially (or on cfg's own runtime) and on rt, and
// fails t unless the two give the same bits.
func checkNaNC(t *testing.T, what string, cfg *Config, rt *sched.Runtime, m, k, n int, rng *rand.Rand) {
	t.Helper()
	a := matrix.NewRandom(m, k, rng)
	b := matrix.NewRandom(k, n, rng)
	for _, on := range []*sched.Runtime{cfg.Sched, rt} {
		run := *cfg
		run.Sched = on
		zero, got := matrix.NewDense(m, n), matrix.NewDense(m, n)
		for i := range got.Data {
			got.Data[i] = math.NaN()
		}
		for _, c := range []*matrix.Dense{zero, got} {
			DGEFMM(&run, blas.NoTrans, blas.NoTrans, m, n, k, 0.75, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		}
		for i, w := range zero.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%s over NaN C, runtime=%v: C word %d = %v, want %v (zero C)", what, on != nil, i, got.Data[i], w)
			}
		}
		if on == rt {
			return
		}
	}
}
