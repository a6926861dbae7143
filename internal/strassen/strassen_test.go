package strassen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// refMul computes C = alpha*op(A)*op(B) + beta*C elementwise as the oracle.
func refMul(transA, transB blas.Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) *matrix.Dense {
	av := matrix.ViewOp(a, transA.IsTrans())
	bv := matrix.ViewOp(b, transB.IsTrans())
	out := c.Clone()
	for j := 0; j < out.Cols; j++ {
		for i := 0; i < out.Rows; i++ {
			var s float64
			for l := 0; l < av.Cols; l++ {
				s += av.At(i, l) * bv.At(l, j)
			}
			out.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
	return out
}

// tol scales the forward-error tolerance with problem size; Strassen's error
// bound grows faster than the standard algorithm's (Higham), so allow slack
// proportional to k * max|A| * max|B|.
func tol(k int) float64 { return 1e-13 * float64(k+8) }

// smallCriterion forces deep recursion on small test matrices.
var smallCriterion = Simple{Tau: 4}

func testConfig(sched Schedule, odd OddStrategy) *Config {
	return &Config{
		Kernel:    blas.NaiveKernel{},
		Criterion: smallCriterion,
		Schedule:  sched,
		Odd:       odd,
	}
}

func runCase(t *testing.T, cfg *Config, transA, transB blas.Transpose, m, n, k int, alpha, beta float64, rng *rand.Rand) {
	t.Helper()
	rowsA, colsA := m, k
	if transA.IsTrans() {
		rowsA, colsA = k, m
	}
	rowsB, colsB := k, n
	if transB.IsTrans() {
		rowsB, colsB = n, k
	}
	a := matrix.NewRandom(rowsA, colsA, rng)
	b := matrix.NewRandom(rowsB, colsB, rng)
	c := matrix.NewRandom(m, n, rng)
	want := refMul(transA, transB, alpha, a, b, beta, c)
	got := c.Clone()
	DGEFMM(cfg, transA, transB, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, got.Data, got.Stride)
	if d := matrix.MaxAbsDiff(got, want); d > tol(k) {
		t.Fatalf("sched=%v odd=%v ta=%c tb=%c m=%d n=%d k=%d α=%v β=%v: maxdiff=%g",
			cfg.Schedule, cfg.Odd, transA, transB, m, n, k, alpha, beta, d)
	}
}

func TestDGEFMMAllSchedulesSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sched := range []Schedule{ScheduleAuto, ScheduleStrassen1, ScheduleStrassen2, ScheduleOriginal} {
		for _, m := range []int{8, 16, 32, 33, 47, 64} {
			for _, ab := range [][2]float64{{1, 0}, {1, 1}, {1.0 / 3, 1.0 / 4}, {-2, 0.5}} {
				runCase(t, testConfig(sched, OddPeel), blas.NoTrans, blas.NoTrans, m, m, m, ab[0], ab[1], rng)
			}
		}
	}
}

func TestDGEFMMAllTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, ta := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		for _, tb := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			for _, dims := range [][3]int{{16, 16, 16}, {17, 19, 23}, {32, 8, 48}} {
				for _, beta := range []float64{0, 1.5} {
					runCase(t, testConfig(ScheduleAuto, OddPeel), ta, tb, dims[0], dims[1], dims[2], 1.25, beta, rng)
				}
			}
		}
	}
}

func TestDGEFMMOddStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, odd := range []OddStrategy{OddPeel, OddPadDynamic, OddPadStatic} {
		for _, dims := range [][3]int{{15, 15, 15}, {17, 33, 9}, {21, 22, 23}, {64, 63, 65}} {
			for _, beta := range []float64{0, 0.5} {
				runCase(t, testConfig(ScheduleAuto, odd), blas.NoTrans, blas.NoTrans, dims[0], dims[1], dims[2], 1, beta, rng)
			}
		}
	}
}

func TestDGEFMMRectangularExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	cfg := testConfig(ScheduleAuto, OddPeel)
	cfg.Criterion = Hybrid{Tau: 6, TauM: 3, TauK: 3, TauN: 3}
	for _, dims := range [][3]int{
		{1, 1, 1}, {1, 64, 64}, {64, 1, 64}, {64, 64, 1},
		{2, 3, 100}, {100, 2, 3}, {6, 14, 86}, {3, 97, 5},
	} {
		for _, beta := range []float64{0, 2} {
			runCase(t, cfg, blas.NoTrans, blas.NoTrans, dims[0], dims[1], dims[2], 1.5, beta, rng)
		}
	}
}

func TestDGEFMMMatchesDGEMMBelowCutoff(t *testing.T) {
	// For sizes at or below the cutoff DGEFMM must be bit-identical to
	// DGEMM — the paper's requirement of "the same performance for small
	// matrices" starts with identical computation.
	rng := rand.New(rand.NewSource(46))
	cfg := DefaultConfig(blas.NaiveKernel{})
	tau := DefaultParams("naive").Tau
	for _, m := range []int{1, 5, tau / 2, tau} {
		a := matrix.NewRandom(m, m, rng)
		b := matrix.NewRandom(m, m, rng)
		c1 := matrix.NewRandom(m, m, rng)
		c2 := c1.Clone()
		blas.DgemmKernel(blas.NaiveKernel{}, blas.NoTrans, blas.NoTrans, m, m, m, 1.5, a.Data, a.Stride, b.Data, b.Stride, 0.5, c1.Data, c1.Stride)
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1.5, a.Data, a.Stride, b.Data, b.Stride, 0.5, c2.Data, c2.Stride)
		if !c1.Equal(c2) {
			t.Fatalf("m=%d: DGEFMM differs from DGEMM below cutoff", m)
		}
	}
}

func TestDGEFMMStridedOperands(t *testing.T) {
	// Operands that are views into larger matrices (ld > rows).
	rng := rand.New(rand.NewSource(47))
	cfg := testConfig(ScheduleAuto, OddPeel)
	m, k, n := 19, 21, 17
	bigA := matrix.NewRandom(m+5, k+3, rng)
	bigB := matrix.NewRandom(k+2, n+4, rng)
	bigC := matrix.NewRandom(m+3, n+2, rng)
	a := bigA.Slice(2, 1, m, k)
	b := bigB.Slice(1, 3, k, n)
	c := bigC.Slice(3, 1, m, n)
	want := refMul(blas.NoTrans, blas.NoTrans, 2, a.Clone(), b.Clone(), 0.25, c.Clone())
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 2, a.Data, a.Stride, b.Data, b.Stride, 0.25, c.Data, c.Stride)
	got := matrix.NewDense(m, n)
	got.CopyFrom(c)
	if d := matrix.MaxAbsDiff(got, want); d > tol(k) {
		t.Fatalf("strided operands: maxdiff=%g", d)
	}
}

func TestDGEFMMHaloPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	cfg := testConfig(ScheduleAuto, OddPeel)
	m, k, n := 15, 13, 11
	bigC := matrix.NewDense(m+4, n+4)
	bigC.Fill(7)
	c := bigC.Slice(2, 2, m, n)
	a := matrix.NewRandom(m, k, rng)
	b := matrix.NewRandom(k, n, rng)
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	for j := 0; j < bigC.Cols; j++ {
		for i := 0; i < bigC.Rows; i++ {
			inside := i >= 2 && i < 2+m && j >= 2 && j < 2+n
			if !inside && bigC.At(i, j) != 7 {
				t.Fatalf("halo damaged at (%d,%d)", i, j)
			}
		}
	}
}

func TestDGEFMMAlphaZero(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	cfg := testConfig(ScheduleAuto, OddPeel)
	m := 20
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	c := matrix.NewRandom(m, m, rng)
	want := c.Clone()
	want.Scale(3)
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 0, a.Data, a.Stride, b.Data, b.Stride, 3, c.Data, c.Stride)
	if !c.EqualApprox(want, 0) {
		t.Fatal("alpha=0 should just scale C")
	}
}

func TestDGEFMMZeroDims(t *testing.T) {
	cfg := testConfig(ScheduleAuto, OddPeel)
	// m=0 and n=0 are no-ops; k=0 scales C.
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, 0, 3, 3, 1, nil, 3, make([]float64, 9), 3, 0, nil, 1)
	c := []float64{1, 2, 3, 4}
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, 2, 2, 0, 1, nil, 2, nil, 1, 0.5, c, 2)
	for i, want := range []float64{0.5, 1, 1.5, 2} {
		if c[i] != want {
			t.Fatalf("k=0 scaling: %v", c)
		}
	}
}

func TestMultiplyWrapper(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	cfg := testConfig(ScheduleAuto, OddPeel)
	a := matrix.NewRandom(9, 14, rng)
	b := matrix.NewRandom(14, 11, rng)
	c := matrix.NewDense(9, 11)
	Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
	want := refMul(blas.NoTrans, blas.NoTrans, 1, a, b, 0, matrix.NewDense(9, 11))
	if d := matrix.MaxAbsDiff(c, want); d > tol(14) {
		t.Fatalf("Multiply wrapper wrong: %g", d)
	}
	// Transposed via wrapper.
	ct := matrix.NewDense(11, 9)
	Multiply(cfg, ct, blas.Trans, blas.Trans, 1, b, a, 0)
	for i := 0; i < 9; i++ {
		for j := 0; j < 11; j++ {
			if math.Abs(ct.At(j, i)-c.At(i, j)) > tol(14) {
				t.Fatal("BᵀAᵀ != (AB)ᵀ")
			}
		}
	}
}

func TestMultiplyWrapperShapePanics(t *testing.T) {
	cfg := testConfig(ScheduleAuto, OddPeel)
	a := matrix.NewDense(3, 4)
	b := matrix.NewDense(5, 6) // inner mismatch
	c := matrix.NewDense(3, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on inner mismatch")
		}
	}()
	Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
}

func TestDGEFMMNilConfigUsesDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := 10
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	c := matrix.NewDense(m, m)
	DGEFMM(nil, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	want := refMul(blas.NoTrans, blas.NoTrans, 1, a, b, 0, matrix.NewDense(m, m))
	if d := matrix.MaxAbsDiff(c, want); d > tol(m) {
		t.Fatalf("nil config: %g", d)
	}
}

func TestDGEFMMValidatesLikeDGEMM(t *testing.T) {
	cfg := testConfig(ScheduleAuto, OddPeel)
	defer func() {
		if recover() == nil {
			t.Fatal("expected DGEMM-style validation panic")
		}
	}()
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, 4, 4, 4, 1, make([]float64, 16), 3 /* lda < m */, make([]float64, 16), 4, 0, make([]float64, 16), 4)
}

// TestDGEFMMRejectsAliasedC: a C whose elements overlap op(A)'s or
// op(B)'s is rejected with a DGEMM-style panic — the same slice, a C
// shifted one column into A, one sharing a single element of a transposed
// B — before any element of C is written.
func TestDGEFMMRejectsAliasedC(t *testing.T) {
	const n = 8
	buf := make([]float64, 3*n*n)
	for i := range buf {
		buf[i] = float64(i%7) - 3
	}
	cases := []struct {
		name          string
		ta, tb        blas.Transpose
		a, b, c       []float64
		lda, ldb, ldc int
	}{
		{"c is a", blas.NoTrans, blas.NoTrans, buf, buf[2*n*n:], buf, n, n, n},
		{"c one column into a", blas.NoTrans, blas.NoTrans, buf, buf[2*n*n:], buf[(n-1)*n:], n, n, n},
		{"c meets the last element of bᵀ", blas.NoTrans, blas.Trans, buf[2*n*n:], buf, buf[n*n-1:], n, n, n},
	}
	for _, tc := range cases {
		before := append([]float64(nil), buf...)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: DGEFMM accepted an aliased C", tc.name)
				}
			}()
			DGEFMM(testConfig(ScheduleAuto, OddPeel), tc.ta, tc.tb, n, n, n, 1, tc.a, tc.lda, tc.b, tc.ldb, 0, tc.c, tc.ldc)
		}()
		for i := range buf {
			if buf[i] != before[i] {
				t.Fatalf("%s: element %d written before the rejection", tc.name, i)
			}
		}
	}
}

// TestDGEFMMAcceptsDisjointBlocks: disjoint blocks of one array stay
// accepted and correct — an LU trailing update A22 ← A22 − A21·A12 on one
// matrix, and A, B and C interleaved row-wise through a leading dimension
// three times their height, whose spans overlap though no element does.
func TestDGEFMMAcceptsDisjointBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := testConfig(ScheduleAuto, OddPeel)

	// LU trailing update on a 40×40 matrix with a 9-wide panel.
	const n, p = 40, 9
	lu := matrix.NewRandom(n, n, rng)
	a21, a12, a22 := lu.Slice(p, 0, n-p, p), lu.Slice(0, p, p, n-p), lu.Slice(p, p, n-p, n-p)
	want := refMul(blas.NoTrans, blas.NoTrans, -1, a21.Clone(), a12.Clone(), 1, a22.Clone())
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, n-p, n-p, p, -1, a21.Data, a21.Stride, a12.Data, a12.Stride, 1, a22.Data, a22.Stride)
	if d := matrix.MaxAbsDiff(a22, want); d > tol(p) {
		t.Fatalf("LU trailing update: maxdiff=%g", d)
	}

	// Row-interleaved 20×20 operands in one 60-row array.
	const m = 20
	all := matrix.NewRandom(3*m, m, rng)
	a, b, c := all.Slice(0, 0, m, m), all.Slice(m, 0, m, m), all.Slice(2*m, 0, m, m)
	want = refMul(blas.Trans, blas.NoTrans, 0.5, a.Clone(), b.Clone(), -2, c.Clone())
	DGEFMM(cfg, blas.Trans, blas.NoTrans, m, m, m, 0.5, a.Data, a.Stride, b.Data, b.Stride, -2, c.Data, c.Stride)
	if d := matrix.MaxAbsDiff(c, want); d > tol(m) {
		t.Fatalf("interleaved operands: maxdiff=%g", d)
	}
}

func TestDeepRecursionPowerOfTwo(t *testing.T) {
	// Force several recursion levels and check accuracy holds.
	rng := rand.New(rand.NewSource(52))
	cfg := testConfig(ScheduleAuto, OddPeel)
	cfg.Criterion = Simple{Tau: 8}
	m := 128 // 4 levels to reach 8
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	c := matrix.NewDense(m, m)
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	want := refMul(blas.NoTrans, blas.NoTrans, 1, a, b, 0, matrix.NewDense(m, m))
	if d := matrix.MaxAbsDiff(c, want); d > 1e-11 {
		t.Fatalf("deep recursion error too large: %g", d)
	}
}

func TestMaxDepthLimitsRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// With MaxDepth=1 the result must still be correct.
	cfg := testConfig(ScheduleAuto, OddPeel)
	cfg.MaxDepth = 1
	runCase(t, cfg, blas.NoTrans, blas.NoTrans, 40, 40, 40, 1, 0, rng)
}

func TestStrassen1ForcedWithBetaNonzero(t *testing.T) {
	// ScheduleStrassen1 with β≠0 must fall back to the general variant and
	// stay correct.
	rng := rand.New(rand.NewSource(54))
	runCase(t, testConfig(ScheduleStrassen1, OddPeel), blas.NoTrans, blas.NoTrans, 24, 24, 24, 1.5, 2.5, rng)
}

func TestOriginalVariantOddSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, dims := range [][3]int{{13, 17, 19}, {32, 32, 32}} {
		for _, beta := range []float64{0, 1} {
			runCase(t, testConfig(ScheduleOriginal, OddPeel), blas.NoTrans, blas.NoTrans, dims[0], dims[1], dims[2], 2, beta, rng)
		}
	}
}

func TestPaddingWithTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, odd := range []OddStrategy{OddPadDynamic, OddPadStatic} {
		for _, ta := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			for _, tb := range []blas.Transpose{blas.NoTrans, blas.Trans} {
				runCase(t, testConfig(ScheduleAuto, odd), ta, tb, 13, 19, 15, 1.5, 0.5, rng)
			}
		}
	}
}
