// Package zgemm adds complex matrix multiplication — the feature the paper
// notes its package lacked relative to DGEMMW ("It should be noted that
// DGEMMW also provides routines for multiplying complex matrices, a feature
// not contained in our package"). This closes that gap the way vendor
// libraries of the era did (ESSL's ZGEMMS): the "3M" algorithm forms the
// complex product from three real multiplications,
//
//	T1 = Ar·Br,  T2 = Ai·Bi,  T3 = (Ar+Ai)·(Br+Bi),
//	Re(A·B) = T1 − T2,  Im(A·B) = T3 − T1 − T2,
//
// and each real product runs through DGEFMM, so Strassen's savings compose
// with the 3M saving (3/4 of the real multiplies of the naive 4M form).
package zgemm

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/strassen"
)

// ZDense is a column-major complex matrix: element (i,j) is
// Data[i + j*Stride].
type ZDense struct {
	Rows, Cols int
	Stride     int
	Data       []complex128
}

// NewZDense allocates a zeroed r×c complex matrix.
func NewZDense(r, c int) *ZDense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("zgemm: NewZDense(%d, %d)", r, c))
	}
	ld := r
	if ld < 1 {
		ld = 1
	}
	return &ZDense{Rows: r, Cols: c, Stride: ld, Data: make([]complex128, r*c)}
}

// At returns element (i, j).
func (z *ZDense) At(i, j int) complex128 {
	if i < 0 || i >= z.Rows || j < 0 || j >= z.Cols {
		panic(fmt.Sprintf("zgemm: At(%d,%d) out of range %dx%d", i, j, z.Rows, z.Cols))
	}
	return z.Data[i+j*z.Stride]
}

// Set writes element (i, j).
func (z *ZDense) Set(i, j int, v complex128) {
	if i < 0 || i >= z.Rows || j < 0 || j >= z.Cols {
		panic(fmt.Sprintf("zgemm: Set(%d,%d) out of range %dx%d", i, j, z.Rows, z.Cols))
	}
	z.Data[i+j*z.Stride] = v
}

// Clone returns a tightly packed deep copy.
func (z *ZDense) Clone() *ZDense {
	out := NewZDense(z.Rows, z.Cols)
	for j := 0; j < z.Cols; j++ {
		copy(out.Data[j*out.Stride:j*out.Stride+z.Rows], z.Data[j*z.Stride:j*z.Stride+z.Rows])
	}
	return out
}

// Transpose selects op(X) for the complex routines: identity, transpose, or
// conjugate transpose.
type Transpose byte

// Transposition selectors.
const (
	// NoTrans selects op(X) = X.
	NoTrans Transpose = 'N'
	// Trans selects op(X) = Xᵀ.
	Trans Transpose = 'T'
	// ConjTrans selects op(X) = Xᴴ.
	ConjTrans Transpose = 'C'
)

func (t Transpose) valid() bool {
	switch t {
	case NoTrans, Trans, ConjTrans, 'n', 't', 'c':
		return true
	}
	return false
}

func (t Transpose) transposed() bool { return t == Trans || t == 't' || t == ConjTrans || t == 'c' }

func (t Transpose) conjugated() bool { return t == ConjTrans || t == 'c' }

// split materializes op(X) into separate real and imaginary Dense matrices
// (conjugation folds into a sign flip of the imaginary part).
func split(x *ZDense, trans Transpose, rows, cols int) (re, im *matrix.Dense) {
	re = matrix.NewDense(rows, cols)
	im = matrix.NewDense(rows, cols)
	sign := 1.0
	if trans.conjugated() {
		sign = -1
	}
	if !trans.transposed() {
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				v := x.Data[i+j*x.Stride]
				re.Set(i, j, real(v))
				im.Set(i, j, sign*imag(v))
			}
		}
		return re, im
	}
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			v := x.Data[j+i*x.Stride]
			re.Set(i, j, real(v))
			im.Set(i, j, sign*imag(v))
		}
	}
	return re, im
}

// ZGEMM computes C ← alpha·op(A)·op(B) + beta·C with the straightforward
// complex algorithm (the correctness reference and small-size path).
func ZGEMM(transA, transB Transpose, m, n, k int, alpha complex128,
	a *ZDense, b *ZDense, beta complex128, c *ZDense) {
	checkArgs("ZGEMM", transA, transB, m, n, k, a, b, c)
	opA := func(i, l int) complex128 {
		var v complex128
		if !transA.transposed() {
			v = a.Data[i+l*a.Stride]
		} else {
			v = a.Data[l+i*a.Stride]
		}
		if transA.conjugated() {
			return complex(real(v), -imag(v))
		}
		return v
	}
	opB := func(l, j int) complex128 {
		var v complex128
		if !transB.transposed() {
			v = b.Data[l+j*b.Stride]
		} else {
			v = b.Data[j+l*b.Stride]
		}
		if transB.conjugated() {
			return complex(real(v), -imag(v))
		}
		return v
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var s complex128
			for l := 0; l < k; l++ {
				s += opA(i, l) * opB(l, j)
			}
			c.Data[i+j*c.Stride] = alpha*s + beta*c.Data[i+j*c.Stride]
		}
	}
}

// ZGEFMM computes C ← alpha·op(A)·op(B) + beta·C via the 3M decomposition
// with each real product computed by DGEFMM under cfg (nil = defaults).
// op(A) is m×k, op(B) is k×n, C is m×n.
func ZGEFMM(cfg *strassen.Config, transA, transB Transpose, m, n, k int,
	alpha complex128, a *ZDense, b *ZDense, beta complex128, c *ZDense) {
	checkArgs("ZGEFMM", transA, transB, m, n, k, a, b, c)
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				c.Data[i+j*c.Stride] *= beta
			}
		}
		return
	}

	ar, ai := split(a, transA, m, k)
	br, bi := split(b, transB, k, n)

	// Sums for the third product.
	as := matrix.NewDense(m, k)
	matrix.Lin(as, matrix.Term{G: 1, X: matrix.ViewOf(ar)}, matrix.Term{G: 1, X: matrix.ViewOf(ai)})
	bs := matrix.NewDense(k, n)
	matrix.Lin(bs, matrix.Term{G: 1, X: matrix.ViewOf(br)}, matrix.Term{G: 1, X: matrix.ViewOf(bi)})

	mul := func(dst, x, y *matrix.Dense) {
		strassen.DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1,
			x.Data, x.Stride, y.Data, y.Stride, 0, dst.Data, dst.Stride)
	}
	t1 := matrix.NewDense(m, n)
	mul(t1, ar, br)
	t2 := matrix.NewDense(m, n)
	mul(t2, ai, bi)
	t3 := matrix.NewDense(m, n)
	mul(t3, as, bs)

	// Combine: P = (T1−T2) + i(T3−T1−T2); C ← alpha·P + beta·C.
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			re := t1.At(i, j) - t2.At(i, j)
			im := t3.At(i, j) - t1.At(i, j) - t2.At(i, j)
			p := complex(re, im)
			c.Data[i+j*c.Stride] = alpha*p + beta*c.Data[i+j*c.Stride]
		}
	}
}

func checkArgs(routine string, transA, transB Transpose, m, n, k int, a, b, c *ZDense) {
	if !transA.valid() {
		panic(routine + ": bad transA")
	}
	if !transB.valid() {
		panic(routine + ": bad transB")
	}
	if m < 0 || n < 0 || k < 0 {
		panic(routine + ": negative dimension")
	}
	rowsA, colsA := m, k
	if transA.transposed() {
		rowsA, colsA = k, m
	}
	rowsB, colsB := k, n
	if transB.transposed() {
		rowsB, colsB = n, k
	}
	checkZ(routine, "a", a, rowsA, colsA)
	checkZ(routine, "b", b, rowsB, colsB)
	checkZ(routine, "c", c, m, n)
}

func checkZ(routine, name string, z *ZDense, rows, cols int) {
	if z == nil {
		if rows == 0 || cols == 0 {
			return
		}
		panic(routine + ": nil " + name)
	}
	if z.Rows != rows || z.Cols != cols {
		panic(fmt.Sprintf("%s: %s is %dx%d, want %dx%d", routine, name, z.Rows, z.Cols, rows, cols))
	}
	if z.Stride < 1 || (rows > 0 && z.Stride < z.Rows) {
		panic(routine + ": bad stride in " + name)
	}
}

// RandomZ fills a complex matrix from two uniform streams; the helper for
// tests and benches.
func RandomZ(z *ZDense, next func() float64) {
	for j := 0; j < z.Cols; j++ {
		for i := 0; i < z.Rows; i++ {
			z.Data[i+j*z.Stride] = complex(2*next()-1, 2*next()-1)
		}
	}
}
