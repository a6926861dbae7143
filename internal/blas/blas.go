// Package blas is a from-scratch reference implementation of the subset of
// the BLAS needed by the paper's DGEFMM and its comparison codes: the Level 1
// vector kernels, the Level 2 DGEMV/DGER routines used by dynamic peeling's
// fixup steps, and Level 3 DGEMM (plus DSYMM/DSYRK/DTRMM/DTRSM for the
// eigensolver substrate). Matrices are column-major with an explicit leading
// dimension, exactly as in the FORTRAN reference BLAS.
//
// DGEMM's inner loop is pluggable (see Kernel): the three provided kernels
// stand in for the three machines of the paper's evaluation (a cache-blocked
// kernel for the RS/6000's tuned ESSL, a column/AXPY-oriented kernel for the
// CRAY C90 vector units, and an untuned scalar kernel for the T3D).
package blas

import "fmt"

// Transpose selects op(X) in Level 2/3 routines: op(X) = X or Xᵀ.
type Transpose byte

const (
	// NoTrans means op(X) = X.
	NoTrans Transpose = 'N'
	// Trans means op(X) = Xᵀ.
	Trans Transpose = 'T'
)

// IsTrans reports whether t selects the transposed operand.
func (t Transpose) IsTrans() bool { return t == Trans || t == 't' }

func (t Transpose) valid() bool {
	switch t {
	case NoTrans, Trans, 'n', 't':
		return true
	}
	return false
}

// Side selects whether the triangular/symmetric operand multiplies from the
// left or the right in DSYMM/DTRMM/DTRSM.
type Side byte

const (
	// Left means the special operand is applied on the left: B ← op(A)·B.
	Left Side = 'L'
	// Right means the special operand is applied on the right: B ← B·op(A).
	Right Side = 'R'
)

func (s Side) valid() bool {
	switch s {
	case Left, Right, 'l', 'r':
		return true
	}
	return false
}

func (s Side) isLeft() bool { return s == Left || s == 'l' }

// Uplo selects which triangle of a symmetric/triangular matrix is referenced.
type Uplo byte

const (
	// Upper references the upper triangle.
	Upper Uplo = 'U'
	// Lower references the lower triangle.
	Lower Uplo = 'L'
)

func (u Uplo) valid() bool {
	switch u {
	case Upper, Lower, 'u', 'l':
		return true
	}
	return false
}

func (u Uplo) isUpper() bool { return u == Upper || u == 'u' }

// Diag states whether a triangular matrix has an implicit unit diagonal.
type Diag byte

const (
	// NonUnit means the diagonal is stored and used.
	NonUnit Diag = 'N'
	// Unit means the diagonal is taken to be all ones.
	Unit Diag = 'U'
)

func (d Diag) valid() bool {
	switch d {
	case NonUnit, Unit, 'n', 'u':
		return true
	}
	return false
}

func (d Diag) isUnit() bool { return d == Unit || d == 'u' }

// xerbla reports an invalid argument in the style of the reference BLAS error
// handler. The reference XERBLA aborts the program; the Go analogue is a
// panic, which tests can assert on and callers with validated inputs never
// see.
func xerbla(routine string, arg int, msg string) {
	panic(fmt.Sprintf("blas: %s: parameter %d invalid: %s", routine, arg, msg))
}

// Xerbla is xerbla for routines built on this package that validate
// their arguments the same way (internal/strassen's DGEFMM).
func Xerbla(routine string, arg int, msg string) { xerbla(routine, arg, msg) }

func checkLD(routine string, arg int, name string, ld, minDim int) {
	if ld < maxInt(1, minDim) {
		xerbla(routine, arg, fmt.Sprintf("ld%s=%d < max(1,%d)", name, ld, minDim))
	}
}

func checkMatSize(routine string, name string, x []float64, rows, cols, ld int) {
	if rows == 0 || cols == 0 {
		return
	}
	if need := (cols-1)*ld + rows; len(x) < need {
		xerbla(routine, 0, fmt.Sprintf("%s has length %d, need at least %d for %dx%d ld=%d", name, len(x), need, rows, cols, ld))
	}
}

func checkVecSize(routine string, name string, x []float64, n, inc int) {
	if n == 0 {
		return
	}
	if inc == 0 {
		xerbla(routine, 0, fmt.Sprintf("inc%s is zero", name))
	}
	need := 1 + (n-1)*absInt(inc)
	if len(x) < need {
		xerbla(routine, 0, fmt.Sprintf("%s has length %d, need at least %d for n=%d inc=%d", name, len(x), need, n, inc))
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
