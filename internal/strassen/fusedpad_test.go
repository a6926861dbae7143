package strassen

import (
	"fmt"
	"maps"
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

// Virtual padding (policy.padsVirtually): an odd level whose program runs
// on blocks rounded up to the grid — a fused level, or a materialized one
// whose products recurse on overhanging blocks — must produce exactly the
// bits the same levels produce on really zero-padded copies —
// OddPadDynamic on the default path, copies padded by hand for the
// tables, which always run OddPeel.

// padKernels are the fused kernels of the oracle: the bit-stable scalar
// Compat kernel, the dispatched SIMD tile (scalar off-host) and the SIMD
// tile with blocks small enough that every fused call crosses its
// jc/pc/ic loops, so clipped extents meet block offsets.
var padKernels = []struct {
	name string
	make func() *kernel.Packed
}{
	{"compat", func() *kernel.Packed { return &kernel.Packed{Compat: true} }},
	{"simd", func() *kernel.Packed { return &kernel.Packed{Mode: kernel.ModeSIMD} }},
	{"simd-small", func() *kernel.Packed { return &kernel.Packed{Mode: kernel.ModeSIMD, MC: 16, KC: 12, NC: 16} }},
}

// padPaths lists the algorithm selections whose last level the kernel can
// fuse: the default path (which fuses the 1969 construction) and every
// fusable registered table.
func padPaths(pk *kernel.Packed) []string {
	var out []string
	for _, name := range AlgoNames() {
		t, _ := algo.ByName(name)
		if name == algo.DefaultName || tableFusable(t, pk.FusedDestLimit()) {
			out = append(out, name)
		}
	}
	return out
}

// padSentinel fills C's ldc gap; any write to it shows as a changed
// payload.
var padSentinel = math.Float64frombits(0x7ff8_0000_dead_beef)

// sentinelMatrix returns an r×c column-major matrix whose leading
// dimension has a 3-row gap and whose storage runs one column past the
// matrix: the gap and the extra column hold fill, the elements random
// values with about one in eight a signed zero.
func sentinelMatrix(rng *rand.Rand, r, c int, fill float64) *matrix.Dense {
	ld := r + 3
	d := matrix.FromColMajor(r, c, ld, make([]float64, ld*(c+1)))
	for i := range d.Data {
		d.Data[i] = fill
	}
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			v := rng.Float64()*2 - 1
			if rng.Intn(8) == 0 {
				v = math.Copysign(0, v)
			}
			d.Data[j*ld+i] = v
		}
	}
	return d
}

// paddedCopy is a zero-filled rp×cp tight copy of m's r×c elements.
func paddedCopy(m *matrix.Dense, rp, cp int) *matrix.Dense {
	out := matrix.NewDense(rp, cp)
	out.Slice(0, 0, m.Rows, m.Cols).CopyFrom(m)
	return out
}

// padCase is one oracle run: a path's grid g, levels recursion levels
// above the last one (materialized levels above the fused one, or above
// hook leaves where the last level is not fusable; on a kernel that fuses
// two levels the last two fuse as one, see twoLevel), each dimension
// g^(levels+1)·q short by s, base cases of τ = q, and a sequential call
// (workers 0) or a runtime of 1 or 2 workers, which runs the levels the
// sequential call runs.
type padCase struct {
	kern, levels int
	path         string
	q            int
	s            [3]int
	ta, tb       bool
	alpha, beta  float64
	workers      int
	seed         int64
}

// dims is the case's problem shape and the padded shape its levels round
// it up to.
func (pc padCase) dims() (shape, padded [3]int) {
	tbl, _ := algo.ByName(pc.path)
	for i, g := range [3]int{tbl.M, tbl.K, tbl.N} {
		padded[i] = pc.q
		for range pc.levels + 1 {
			padded[i] *= g
		}
		shape[i] = padded[i] - pc.s[i]
	}
	return shape, padded
}

// String names the case in failures.
func (pc padCase) String() string {
	return fmt.Sprintf("%s %s levels=%d q=%d short=%v ta=%v tb=%v β=%g workers=%d",
		padKernels[pc.kern].name, pc.path, pc.levels, pc.q, pc.s, pc.ta, pc.tb, pc.beta, pc.workers)
}

// twoLevel reports whether the case's last two levels fuse as one node
// (fused2) at depth levels−1: on the default path, where the kernel writes
// four destinations natively.
func (pc padCase) twoLevel(pk *kernel.Packed) bool {
	return pc.path == algo.DefaultName && pk.FusedDestLimit() >= 4 && pc.levels > 0
}

// peels reports whether the case's top level must peel: on the default
// path at β = 0 the top level is STRASSEN1 unless it is the two-level
// fused node, and STRASSEN1 fails (b) where its C blocks overhang in m or
// n — C21 ← C22 − C11 − C21 needs the column C22 lacks, C12 ← C12 + C21
// the row C21 lacks. Everything else the oracle runs pads virtually at
// every level.
func (pc padCase) peels(pk *kernel.Packed) bool {
	return pc.levels > 0 && pc.path == algo.DefaultName && pc.beta == 0 && (pc.s[0] > 0 || pc.s[2] > 0) &&
		!(pc.twoLevel(pk) && pc.levels == 1)
}

// checkPad runs one case with OddPeel, padding virtually, and against
// really zero-padded operands — OddPadDynamic on the default path, copies
// padded by hand for the tables (whose shortfalls stay below the grid, so
// one padding up front rounds every level as the virtual run does) — and
// compares C bit for bit. It checks that the run took the expected levels
// with no peel or fixup and as many fused levels as the reference, that
// the OddPadDynamic reference padded (once, over a single level), that A
// and B are unchanged, and that no word of C's ldc gap was written.
func checkPad(t *testing.T, pc padCase) {
	t.Helper()
	pk := padKernels[pc.kern].make()
	dims, pdims := pc.dims()
	m, k, n := dims[0], dims[1], dims[2]
	var rt *sched.Runtime
	if pc.workers > 0 {
		rt = sched.New(pc.workers, 1)
		defer rt.Close()
	}
	cfg := func(odd OddStrategy, tr Tracer) *Config {
		cfg := &Config{Kernel: pk, Criterion: Simple{Tau: pc.q}, Algo: pc.path, Odd: odd, Fused: FusedOn, Tracer: tr}
		if rt != nil {
			cfg.Sched = rt
		}
		return cfg
	}
	transA, transB := blas.NoTrans, blas.NoTrans
	if pc.ta {
		transA = blas.Trans
	}
	if pc.tb {
		transB = blas.Trans
	}
	rng := rand.New(rand.NewSource(pc.seed))
	ar, ac := m, k
	if pc.ta {
		ar, ac = k, m
	}
	br, bc := k, n
	if pc.tb {
		br, bc = n, k
	}
	a := sentinelMatrix(rng, ar, ac, math.NaN())
	b := sentinelMatrix(rng, br, bc, math.NaN())
	c0 := sentinelMatrix(rng, m, n, padSentinel)
	a0 := append([]float64(nil), a.Data...)
	b0 := append([]float64(nil), b.Data...)

	got := append([]float64(nil), c0.Data...)
	tr := &LogTracer{}
	DGEFMM(cfg(OddPeel, tr), transA, transB, m, n, k, pc.alpha, a.Data, a.Stride, b.Data, b.Stride, pc.beta, got, c0.Stride)
	levels := make([]string, pc.levels+1) // the first action at each depth
	for _, e := range tr.Events {
		if (strings.HasPrefix(e.Action, "fixup") || e.Action == "peel") && !pc.peels(pk) {
			t.Fatalf("%s: %s at depth %d", pc, e.Action, e.Depth)
		}
		if e.Depth <= pc.levels && levels[e.Depth] == "" {
			levels[e.Depth] = e.Action
		}
	}
	if pc.peels(pk) {
		if levels[0] != "peel" {
			t.Fatalf("%s: the top level pads virtually (%v); want it to peel", pc, levels)
		}
		return
	}
	// The last level is fused unless the kernel cannot fuse the table.
	// Where the last two fuse as one, the fused node sits a level higher
	// and no node starts at the last depth.
	lastFused := fusable(pk, pc.path)
	fusedAt, fusedName := pc.levels, "fused1"
	if pc.twoLevel(pk) {
		fusedAt, fusedName = pc.levels-1, "fused2"
	}
	topFused := lastFused && fusedAt == 0
	for d, act := range levels {
		if d > fusedAt && lastFused {
			if act != "" {
				t.Fatalf("%s: depth %d runs %q below the fused node (levels %v)", pc, d, act, levels)
			}
			continue
		}
		fused := act == fusedName
		if act == "" || act == "peel" || act == "base" || fused != (d == fusedAt && lastFused) {
			t.Fatalf("%s: depth %d runs %q (levels %v)", pc, d, act, levels)
		}
	}

	// Every level above the fused one runs all the table's products, so
	// it traces once per product path; a fused top level is the only event
	// of its call.
	counts := tally(tr.Events)
	tbl, _ := algo.ByName(pc.path)
	wantFused := 0
	if lastFused {
		wantFused = 1
		for range fusedAt {
			wantFused *= tbl.R
		}
	}
	if counts[fusedName] != wantFused || (topFused && len(tr.Events) != 1) {
		t.Fatalf("%s: want %d %s levels, got %v", pc, wantFused, fusedName, counts)
	}

	want := append([]float64(nil), c0.Data...)
	if pc.path == algo.DefaultName {
		// OddPadDynamic pads each odd level once and then runs the
		// levels the virtual run took.
		rtr := &LogTracer{}
		DGEFMM(cfg(OddPadDynamic, rtr), transA, transB, m, n, k, pc.alpha, a.Data, a.Stride, b.Data, b.Stride, pc.beta, want, c0.Stride)
		ref := tally(rtr.Events)
		pads := ref["pad-dynamic"]
		delete(ref, "pad-dynamic")
		if pads < 1 || (topFused && pads != 1) || !maps.Equal(ref, counts) {
			t.Fatalf("%s: reference padded %d times and ran %v; the virtual run ran %v", pc, pads, ref, counts)
		}
	} else {
		mp, kp, np := pdims[0], pdims[1], pdims[2]
		apr, apc := mp, kp
		if pc.ta {
			apr, apc = kp, mp
		}
		bpr, bpc := kp, np
		if pc.tb {
			bpr, bpc = np, kp
		}
		ap, bp, cp := paddedCopy(a, apr, apc), paddedCopy(b, bpr, bpc), paddedCopy(c0, mp, np)
		rtr := &LogTracer{}
		DGEFMM(cfg(OddPeel, rtr), transA, transB, mp, np, kp, pc.alpha, ap.Data, ap.Stride, bp.Data, bp.Stride, pc.beta, cp.Data, cp.Stride)
		if ref := tally(rtr.Events); !maps.Equal(ref, counts) {
			t.Fatalf("%s: padded reference ran %v; the virtual run ran %v", pc, ref, counts)
		}
		matrix.FromColMajor(m, n, c0.Stride, want).CopyFrom(cp.Slice(0, 0, m, n))
	}

	for i := range got {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s: C word %d (row %d, col %d) is %x virtually padded, %x really padded",
				pc, i, i%c0.Stride, i/c0.Stride, g, w)
		}
		if i%c0.Stride >= m || i/c0.Stride >= n {
			if math.Float64bits(got[i]) != math.Float64bits(padSentinel) {
				t.Fatalf("%s: C gap word %d was written", pc, i)
			}
		}
	}
	for i := range a0 {
		if math.Float64bits(a.Data[i]) != math.Float64bits(a0[i]) {
			t.Fatalf("%s: A word %d was written", pc, i)
		}
	}
	for i := range b0 {
		if math.Float64bits(b.Data[i]) != math.Float64bits(b0[i]) {
			t.Fatalf("%s: B word %d was written", pc, i)
		}
	}
}

// tally counts a trace's events by action.
func tally(events []TraceEvent) map[string]int {
	out := make(map[string]int)
	for _, e := range events {
		out[e.Action]++
	}
	return out
}

// fusable reports whether the kernel fuses the path's last level; where
// it does not, the last level is materialized over hook leaves.
func fusable(pk *kernel.Packed, path string) bool {
	t, _ := algo.ByName(path)
	return path == algo.DefaultName || tableFusable(t, pk.FusedDestLimit())
}

// shortfalls lists the per-dimension shortfalls the oracles cover on a
// path's grid: m, k and n short alone and together by one, and by grid−1
// on wider grids — and, below a materialized level on the default
// ⟨2,2,2⟩ grid, k short by three, which makes the next level's k odd too.
// (m or n odd one level down would make its β = 0 products STRASSEN1
// levels that peel, so the plan would not pad every level.)
func shortfalls(path string, levels int) [][3]int {
	t, _ := algo.ByName(path)
	last := [3]int{t.M - 1, t.K - 1, t.N - 1}
	if path == algo.DefaultName && levels > 0 {
		last = [3]int{1, 3, 1}
	}
	return [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, last}
}

// TestFusedPadMatchesRealPadding is the oracle for fused levels: for every
// fused kernel, every fusable path, m, k and n short of the grid alone and
// all together (by one, and by grid−1 on wider grids), both transposes of
// each operand and β ∈ {0, 1, 0.25}, a top level fused on virtually padded
// blocks equals real padding bit for bit.
func TestFusedPadMatchesRealPadding(t *testing.T) {
	qs := []int{9, 21}
	if testing.Short() {
		qs = qs[:1]
	}
	seed := int64(0)
	for kern := range padKernels {
		for _, path := range padPaths(padKernels[kern].make()) {
			for _, q := range qs {
				for _, s := range shortfalls(path, 0) {
					for _, ta := range []bool{false, true} {
						for _, tb := range []bool{false, true} {
							for _, beta := range []float64{0, 1, 0.25} {
								seed++
								checkPad(t, padCase{kern: kern, path: path, q: q, s: s, ta: ta, tb: tb,
									alpha: -0.75, beta: beta, seed: seed})
							}
						}
					}
				}
			}
		}
	}
}

// TestMaterializedPadMatchesRealPadding is the oracle for materialized
// levels: one or two of them above the fused level (above hook leaves
// where the kernel does not fuse the table), on every path, with m, k and
// n short alone and together, both transposes, β ∈ {0.25, 1} and β = 0
// (which peels where STRASSEN1 cannot pad, see padCase.peels), on the
// Compat kernel and the SIMD tile with small blocks, sequentially and on
// 1- and 2-worker runtimes (-short: the Compat kernel, sequential and 2
// workers). Where the SIMD tile fuses the default path's last two levels
// as one node, the trees also run a level deeper, so that two
// materialized levels still run above it (one level runs none above it:
// the fused node is the top). Two levels of a wider table
// run thousands of tiny leaves, so those cases take one shortfall, β and
// transpose pair.
func TestMaterializedPadMatchesRealPadding(t *testing.T) {
	kerns, workers := []int{0, 2}, []int{0, 1, 2}
	if testing.Short() {
		kerns, workers = kerns[:1], []int{0, 2}
	}
	seed := int64(1000)
	for _, kern := range kerns {
		for _, path := range AlgoNames() {
			tbl, _ := algo.ByName(path)
			levelsSet := []int{1, 2}
			if (padCase{path: path, levels: 3}).twoLevel(padKernels[kern].make()) {
				levelsSet = append(levelsSet, 3)
			}
			for _, levels := range levelsSet {
				q, shorts, betas, trs := 4, shortfalls(path, levels), []float64{0, 1, 0.25}, []int{0, 1, 2, 3}
				if tbl.M*tbl.K*tbl.N > 8 {
					q = 3 - levels/2
					if levels == 2 {
						shorts, betas, trs = shorts[3:4], betas[2:], []int{0, 3}
					}
				}
				for _, s := range shorts {
					for _, tr := range trs {
						for _, beta := range betas {
							for _, w := range workers {
								seed++
								checkPad(t, padCase{kern: kern, path: path, levels: levels, q: q, s: s,
									ta: tr&1 != 0, tb: tr&2 != 0, alpha: 1.25, beta: beta, workers: w, seed: seed})
							}
						}
					}
				}
			}
		}
	}
}

// FuzzFusedPad fuzzes the oracles over block size, levels (up to three on
// the default path, whose last two may fuse as one node), per-dimension
// shortfall, transposes, β, kernel, path and workers. CI runs a 10s
// smoke; testdata/fuzz/FuzzFusedPad holds seeds with materialized levels.
func FuzzFusedPad(f *testing.F) {
	f.Add(uint8(9), uint8(1), uint8(1), uint8(1), false, false, uint8(0), uint8(0), uint8(0), int64(1), uint8(0), uint8(0))
	f.Add(uint8(17), uint8(1), uint8(0), uint8(0), true, false, uint8(1), uint8(1), uint8(1), int64(2), uint8(0), uint8(0))
	f.Add(uint8(33), uint8(0), uint8(1), uint8(1), false, true, uint8(2), uint8(2), uint8(2), int64(3), uint8(0), uint8(0))
	f.Add(uint8(5), uint8(2), uint8(2), uint8(2), true, true, uint8(1), uint8(2), uint8(3), int64(4), uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, q8, sm, sk, sn uint8, ta, tb bool, betaSel, kernSel, pathSel uint8, seed int64, levels8, workers8 uint8) {
		pc := padCase{kern: int(kernSel) % len(padKernels), levels: int(levels8 % 4), ta: ta, tb: tb,
			alpha: 1.25, beta: [3]float64{0, 1, 0.25}[betaSel%3], workers: int(workers8 % 3), seed: seed}
		paths := padPaths(padKernels[pc.kern].make())
		if pc.levels > 0 {
			paths = AlgoNames()
		}
		pc.path = paths[int(pathSel)%len(paths)]
		if pc.path != algo.DefaultName {
			pc.levels = min(pc.levels, 2) // wider grids: thousands of leaves
		}
		tbl, _ := algo.ByName(pc.path)
		pc.q = int(q8%40) + 4
		if pc.levels > 0 {
			pc.q = int(q8%3) + 2
		}
		pc.s = [3]int{int(sm) % tbl.M, int(sk) % tbl.K, int(sn) % tbl.N}
		if pc.path == algo.DefaultName && pc.levels > 0 {
			// k may fall short by up to 3 (an odd k one level down); m and
			// n by one, as in shortfalls.
			pc.s[1] = int(sk) % 4
		}
		if pc.s == [3]int{} {
			pc.s[0] = 1
		}
		if dims, _ := pc.dims(); min(dims[0], dims[1], dims[2]) <= pc.q {
			t.Skip("shape does not recurse once")
		}
		checkPad(t, pc)
	})
}
