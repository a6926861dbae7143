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
)

// Virtual padding (policy.padsVirtually): an odd level whose fused program
// runs on blocks rounded up to the grid must produce exactly the bits the
// same level produces on really zero-padded copies — OddPadDynamic on the
// default path, copies padded by hand for the tables, which always peel.

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

// checkFusedPad runs one (m, k, n) multiply whose top level the kernel
// fuses on padded blocks of the grid (τ = ⌈dim/grid⌉) both ways and
// compares C bit for bit, then checks that A, B and C's gaps are intact.
func checkFusedPad(t *testing.T, kern int, path string, m, k, n int, ta, tb bool, alpha, beta float64, seed int64) {
	t.Helper()
	pk := padKernels[kern].make()
	tbl, _ := algo.ByName(path)
	gm, gk, gn := tbl.M, tbl.K, tbl.N
	mp, kp, np := roundUp(m, gm), roundUp(k, gk), roundUp(n, gn)
	tau := max(mp/gm, kp/gk, np/gn)
	if m <= tau || k <= tau || n <= tau {
		t.Fatalf("%d×%d×%d does not recurse once on the %d×%d×%d grid", m, k, n, gm, gk, gn)
	}
	cfg := func(odd OddStrategy, tr Tracer) *Config {
		return &Config{Kernel: pk, Criterion: Simple{Tau: tau}, Algo: path, Odd: odd, Fused: FusedOn, Tracer: tr}
	}
	transA, transB := blas.NoTrans, blas.NoTrans
	if ta {
		transA = blas.Trans
	}
	if tb {
		transB = blas.Trans
	}
	rng := rand.New(rand.NewSource(seed))
	ar, ac := m, k
	if ta {
		ar, ac = k, m
	}
	br, bc := k, n
	if tb {
		br, bc = n, k
	}
	a := sentinelMatrix(rng, ar, ac, math.NaN())
	b := sentinelMatrix(rng, br, bc, math.NaN())
	c0 := sentinelMatrix(rng, m, n, padSentinel)
	a0 := append([]float64(nil), a.Data...)
	b0 := append([]float64(nil), b.Data...)
	what := fmt.Sprintf("%s %s %d×%d×%d ta=%v tb=%v β=%g", padKernels[kern].name, path, m, k, n, ta, tb, beta)

	got := append([]float64(nil), c0.Data...)
	tr := NewCountTracer()
	DGEFMM(cfg(OddPeel, tr), transA, transB, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, got, c0.Stride)
	if tr.Count("fused1") != 1 || tr.Count("peel") != 0 || tr.Total() != 1 {
		t.Fatalf("%s: want one fused1 level and nothing else, got %s", what, tr)
	}

	var want []float64
	if path == algo.DefaultName {
		want = append([]float64(nil), c0.Data...)
		tr := NewCountTracer()
		DGEFMM(cfg(OddPadDynamic, tr), transA, transB, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, want, c0.Stride)
		if tr.Count("pad-dynamic") != 1 || tr.Count("fused1") != 1 {
			t.Fatalf("%s: reference did not pad into a fused level: %s", what, tr)
		}
	} else {
		apr, apc := mp, kp
		if ta {
			apr, apc = kp, mp
		}
		bpr, bpc := kp, np
		if tb {
			bpr, bpc = np, kp
		}
		ap, bp, cp := paddedCopy(a, apr, apc), paddedCopy(b, bpr, bpc), paddedCopy(c0, mp, np)
		tr := NewCountTracer()
		DGEFMM(cfg(OddPeel, tr), transA, transB, mp, np, kp, alpha, ap.Data, ap.Stride, bp.Data, bp.Stride, beta, cp.Data, cp.Stride)
		if tr.Count("fused1") != 1 || tr.Total() != 1 {
			t.Fatalf("%s: padded reference is not one fused level: %s", what, tr)
		}
		want = append([]float64(nil), c0.Data...)
		matrix.FromColMajor(m, n, c0.Stride, want).CopyFrom(cp.Slice(0, 0, m, n))
	}

	for i := range got {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s: C word %d (row %d, col %d) is %x virtually padded, %x really padded",
				what, i, i%c0.Stride, i/c0.Stride, g, w)
		}
		if i%c0.Stride >= m || i/c0.Stride >= n {
			if math.Float64bits(got[i]) != math.Float64bits(padSentinel) {
				t.Fatalf("%s: C gap word %d was written", what, i)
			}
		}
	}
	for i := range a0 {
		if math.Float64bits(a.Data[i]) != math.Float64bits(a0[i]) {
			t.Fatalf("%s: A word %d was written", what, i)
		}
	}
	for i := range b0 {
		if math.Float64bits(b.Data[i]) != math.Float64bits(b0[i]) {
			t.Fatalf("%s: B word %d was written", what, i)
		}
	}
}

// TestFusedPadMatchesRealPadding is the oracle: for every fused kernel,
// every fusable path, m, k and n short of the grid alone and all together
// (by one, and by grid−1 on wider grids), both transposes of each operand
// and β ∈ {0, 1, 0.25}, virtual padding equals real padding bit for bit.
func TestFusedPadMatchesRealPadding(t *testing.T) {
	qs := []int{9, 21}
	if testing.Short() {
		qs = qs[:1]
	}
	seed := int64(0)
	for kern := range padKernels {
		for _, path := range padPaths(padKernels[kern].make()) {
			tbl, _ := algo.ByName(path)
			g := [3]int{tbl.M, tbl.K, tbl.N}
			shorts := [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {g[0] - 1, g[1] - 1, g[2] - 1}}
			for _, q := range qs {
				for _, s := range shorts {
					m, k, n := g[0]*q-s[0], g[1]*q-s[1], g[2]*q-s[2]
					for _, ta := range []bool{false, true} {
						for _, tb := range []bool{false, true} {
							for _, beta := range []float64{0, 1, 0.25} {
								seed++
								checkFusedPad(t, kern, path, m, k, n, ta, tb, -0.75, beta, seed)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzFusedPad fuzzes the oracle over block size, per-dimension shortfall,
// transposes, β, kernel and path. CI runs a 10s smoke.
func FuzzFusedPad(f *testing.F) {
	f.Add(uint8(9), uint8(1), uint8(1), uint8(1), false, false, uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(17), uint8(1), uint8(0), uint8(0), true, false, uint8(1), uint8(1), uint8(1), int64(2))
	f.Add(uint8(33), uint8(0), uint8(1), uint8(1), false, true, uint8(2), uint8(2), uint8(2), int64(3))
	f.Add(uint8(5), uint8(2), uint8(2), uint8(2), true, true, uint8(1), uint8(2), uint8(3), int64(4))

	f.Fuzz(func(t *testing.T, q8, sm, sk, sn uint8, ta, tb bool, betaSel, kernSel, pathSel uint8, seed int64) {
		kern := int(kernSel) % len(padKernels)
		paths := padPaths(padKernels[kern].make())
		path := paths[int(pathSel)%len(paths)]
		tbl, _ := algo.ByName(path)
		q := int(q8%40) + 4
		s := [3]int{int(sm) % tbl.M, int(sk) % tbl.K, int(sn) % tbl.N}
		if s == [3]int{} {
			s[0] = 1
		}
		m, k, n := tbl.M*q-s[0], tbl.K*q-s[1], tbl.N*q-s[2]
		if m <= q || k <= q || n <= q {
			t.Skip("shape does not recurse once")
		}
		beta := [3]float64{0, 1, 0.25}[betaSel%3]
		checkFusedPad(t, kern, path, m, k, n, ta, tb, 1.25, beta, seed)
	})
}
