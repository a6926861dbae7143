package blas

import (
	"math"
	"math/rand"
	"testing"
)

// randMat returns column-major data for an r×c matrix with leading
// dimension ld ≥ r (extra rows filled with sentinels to catch overwrites).
func randMat(rng *rand.Rand, r, c, ld int) []float64 {
	a := make([]float64, ld*c)
	for i := range a {
		a[i] = 999 // sentinel
	}
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			a[i+j*ld] = 2*rng.Float64() - 1
		}
	}
	return a
}

// refGemv computes y = alpha*op(A)*x + beta*y elementwise.
func refGemv(trans Transpose, m, n int, alpha float64, a []float64, lda int,
	x []float64, incX int, beta float64, y []float64, incY int) []float64 {
	lenY := m
	lenX := n
	if trans.IsTrans() {
		lenY, lenX = n, m
	}
	ix0, iy0 := startIdx(lenX, incX), startIdx(lenY, incY)
	out := append([]float64(nil), y...)
	for i := 0; i < lenY; i++ {
		var s float64
		for j := 0; j < lenX; j++ {
			var aij float64
			if !trans.IsTrans() {
				aij = a[i+j*lda]
			} else {
				aij = a[j+i*lda]
			}
			s += aij * x[ix0+j*incX]
		}
		out[iy0+i*incY] = alpha*s + beta*y[iy0+i*incY]
	}
	return out
}

func TestDgemvAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		m, n := rng.Intn(12)+1, rng.Intn(12)+1
		lda := m + rng.Intn(3)
		trans := NoTrans
		if rng.Intn(2) == 1 {
			trans = Trans
		}
		lenX, lenY := n, m
		if trans.IsTrans() {
			lenX, lenY = m, n
		}
		incX := 1 + rng.Intn(2)
		incY := 1 + rng.Intn(2)
		a := randMat(rng, m, n, lda)
		x := randVec(rng, 1+(lenX-1)*incX)
		y := randVec(rng, 1+(lenY-1)*incY)
		alpha := 2*rng.Float64() - 1
		beta := 2*rng.Float64() - 1
		if trial%5 == 0 {
			beta = 0
		}
		want := refGemv(trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
		Dgemv(trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
		for i := range y {
			if !almostEq(y[i], want[i], 1e-13) {
				t.Fatalf("trial %d (trans=%c): y[%d]=%v want %v", trial, trans, i, y[i], want[i])
			}
		}
	}
}

func TestDgemvBetaZeroOverwritesNaN(t *testing.T) {
	// beta == 0 must overwrite y even if it holds garbage/NaN.
	a := []float64{1, 2} // 2×1
	x := []float64{3}
	y := []float64{nan(), nan()}
	Dgemv(NoTrans, 2, 1, 1, a, 2, x, 1, 0, y, 1)
	if y[0] != 3 || y[1] != 6 {
		t.Fatalf("beta=0 with NaN y: %v", y)
	}
}

func nan() float64 { var z float64; return z / z }

// columnGemvN is the one-column-at-a-time NoTrans update y += alpha·A·x
// (unit y stride) with the reference BLAS zero-skip: the loop Dgemv's
// four-column pass must reproduce bit for bit.
func columnGemvN(m, n int, alpha float64, a []float64, lda int, x []float64, incX int, y []float64) {
	ix := startIdx(n, incX)
	for j := 0; j < n; j++ {
		t := alpha * x[ix]
		ix += incX
		if t == 0 {
			continue
		}
		for i := 0; i < m; i++ {
			y[i] += t * a[j*lda+i]
		}
	}
}

// TestDgemvNoTransBitwise pins the four-column NoTrans pass to the
// one-column loop bit for bit: every n mod 4 remainder, a zero coefficient
// at each of the four positions of a group, NaN/Inf in A (behind zero and
// nonzero coefficients) and in x, and positive and negative x strides.
func TestDgemvNoTransBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	inf := math.Inf(1)
	type poison struct {
		name  string
		apply func(a []float64, lda int, x []float64, incX int)
	}
	xAt := func(j, n, incX int) int { return startIdx(n, incX) + j*incX }
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13} {
		m := 11
		lda := m + 2
		poisons := []poison{{"none", func([]float64, int, []float64, int) {}}}
		for z := 0; z < 4 && z < n; z++ {
			z := z
			poisons = append(poisons,
				poison{"zero x", func(_ []float64, _ int, x []float64, incX int) { x[xAt(z, n, incX)] = 0 }},
				poison{"zero x, Inf in A", func(a []float64, lda int, x []float64, incX int) {
					x[xAt(z, n, incX)] = 0
					a[z*lda+3] = inf
				}},
				poison{"zero x, NaN in A", func(a []float64, lda int, x []float64, incX int) {
					x[xAt(z, n, incX)] = 0
					a[z*lda] = nan()
				}},
			)
		}
		poisons = append(poisons,
			poison{"NaN in A", func(a []float64, lda int, _ []float64, _ int) { a[(n-1)*lda+5] = nan() }},
			poison{"Inf in A", func(a []float64, lda int, _ []float64, _ int) { a[2] = -inf }},
			poison{"Inf in x", func(_ []float64, _ int, x []float64, incX int) { x[xAt(n/2, n, incX)] = inf }},
			poison{"NaN in x", func(_ []float64, _ int, x []float64, incX int) { x[xAt(n-1, n, incX)] = nan() }},
		)
		for _, incX := range []int{1, 2, -1, -3} {
			for _, alpha := range []float64{1, -0.75} {
				for _, p := range poisons {
					a := randMat(rng, m, n, lda)
					x := make([]float64, 1+(n-1)*abs(incX))
					for i := range x {
						x[i] = 2*rng.Float64() - 1
					}
					p.apply(a, lda, x, incX)
					y0 := make([]float64, m)
					for i := range y0 {
						y0[i] = 2*rng.Float64() - 1
					}
					got := append([]float64(nil), y0...)
					want := append([]float64(nil), y0...)
					Dgemv(NoTrans, m, n, alpha, a, lda, x, incX, 1, got, 1)
					columnGemvN(m, n, alpha, a, lda, x, incX, want)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("n=%d incX=%d alpha=%g %s: y[%d] = %x, want %x",
								n, incX, alpha, p.name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestDgerAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		m, n := rng.Intn(10)+1, rng.Intn(10)+1
		lda := m + rng.Intn(3)
		incX := 1 + rng.Intn(2)
		incY := 1 + rng.Intn(2)
		a := randMat(rng, m, n, lda)
		x := randVec(rng, 1+(m-1)*incX)
		y := randVec(rng, 1+(n-1)*incY)
		alpha := 2*rng.Float64() - 1
		want := append([]float64(nil), a...)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				want[i+j*lda] += alpha * x[i*incX] * y[j*incY]
			}
		}
		Dger(m, n, alpha, x, incX, y, incY, a, lda)
		for i := range a {
			if !almostEq(a[i], want[i], 1e-14) {
				t.Fatalf("trial %d: a[%d]=%v want %v", trial, i, a[i], want[i])
			}
		}
	}
}

func TestDgerPreservesSentinels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, n, lda := 3, 4, 5
	a := randMat(rng, m, n, lda)
	Dger(m, n, 1.5, randVec(rng, m), 1, randVec(rng, n), 1, a, lda)
	for j := 0; j < n; j++ {
		for i := m; i < lda; i++ {
			if a[i+j*lda] != 999 {
				t.Fatal("Dger wrote outside the m×n block")
			}
		}
	}
}

func TestDsymvAgainstDgemv(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(10) + 1
		lda := n + rng.Intn(2)
		// Build a full symmetric matrix, then run Dsymv on each triangle.
		full := make([]float64, lda*n)
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				v := 2*rng.Float64() - 1
				full[i+j*lda] = v
				full[j+i*lda] = v
			}
		}
		x := randVec(rng, n)
		alpha, beta := 2*rng.Float64()-1, 2*rng.Float64()-1
		for _, uplo := range []Uplo{Upper, Lower} {
			y := randVec(rng, n)
			want := refGemv(NoTrans, n, n, alpha, full, lda, x, 1, beta, y, 1)
			// Poison the unreferenced triangle to prove it is not read.
			poisoned := append([]float64(nil), full...)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					if i != j && ((i < j) != (uplo == Upper)) {
						poisoned[i+j*lda] = 1e300
					}
				}
			}
			Dsymv(uplo, n, alpha, poisoned, lda, x, 1, beta, y, 1)
			for i := range y {
				if !almostEq(y[i], want[i], 1e-13) {
					t.Fatalf("Dsymv uplo=%c trial %d mismatch", uplo, trial)
				}
			}
		}
	}
}

func TestDtrmvDtrsvRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(8) + 1
		lda := n + rng.Intn(2)
		a := randMat(rng, n, n, lda)
		// Make the diagonal well-conditioned for the solve.
		for i := 0; i < n; i++ {
			a[i+i*lda] = 2 + rng.Float64()
		}
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					x := randVec(rng, n)
					orig := append([]float64(nil), x...)
					Dtrmv(uplo, trans, diag, n, a, lda, x, 1)
					Dtrsv(uplo, trans, diag, n, a, lda, x, 1)
					for i := range x {
						if !almostEq(x[i], orig[i], 1e-10) {
							t.Fatalf("trmv/trsv roundtrip failed uplo=%c trans=%c diag=%c n=%d", uplo, trans, diag, n)
						}
					}
				}
			}
		}
	}
}

func TestDtrmvAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n, lda := 5, 6
	a := randMat(rng, n, n, lda)
	for _, uplo := range []Uplo{Upper, Lower} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			for _, diag := range []Diag{NonUnit, Unit} {
				// Densify the triangle.
				full := make([]float64, n*n)
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						inTri := i == j || ((i < j) == (uplo == Upper))
						switch {
						case i == j && diag == Unit:
							full[i+j*n] = 1
						case inTri:
							full[i+j*n] = a[i+j*lda]
						}
					}
				}
				x := randVec(rng, n)
				want := refGemv(trans, n, n, 1, full, n, x, 1, 0, make([]float64, n), 1)
				Dtrmv(uplo, trans, diag, n, a, lda, x, 1)
				for i := range x {
					if !almostEq(x[i], want[i], 1e-13) {
						t.Fatalf("Dtrmv mismatch uplo=%c trans=%c diag=%c", uplo, trans, diag)
					}
				}
			}
		}
	}
}

func TestLevel2Panics(t *testing.T) {
	a := make([]float64, 9)
	for name, f := range map[string]func(){
		"Dgemv bad trans": func() { Dgemv('X', 2, 2, 1, a, 2, a, 1, 0, a, 1) },
		"Dgemv bad lda":   func() { Dgemv(NoTrans, 3, 2, 1, a, 2, a, 1, 0, a, 1) },
		"Dger m<0":        func() { Dger(-1, 2, 1, a, 1, a, 1, a, 2) },
		"Dsymv bad uplo":  func() { Dsymv('Q', 2, 1, a, 2, a, 1, 0, a, 1) },
		"Dtrsv bad diag":  func() { Dtrsv(Upper, NoTrans, 'Z', 2, a, 2, a, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
