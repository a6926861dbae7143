package blas

// Level 2 BLAS: matrix-vector kernels. DGEMV and DGER are the fixup
// primitives of the paper's dynamic peeling (Section 3.3): the rank-one
// update a12·b21 is a DGER and the border row/column products are DGEMVs.

// Dgemv computes y ← alpha*op(A)*x + beta*y where A is m×n column-major.
func Dgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int,
	x []float64, incX int, beta float64, y []float64, incY int) {
	if !trans.valid() {
		xerbla("DGEMV", 1, "bad trans")
	}
	if m < 0 {
		xerbla("DGEMV", 2, "m < 0")
	}
	if n < 0 {
		xerbla("DGEMV", 3, "n < 0")
	}
	checkLD("DGEMV", 6, "a", lda, m)
	if m == 0 || n == 0 {
		return
	}
	checkMatSize("DGEMV", "a", a, m, n, lda)
	lenX, lenY := n, m
	if trans.IsTrans() {
		lenX, lenY = m, n
	}
	checkVecSize("DGEMV", "x", x, lenX, incX)
	checkVecSize("DGEMV", "y", y, lenY, incY)

	// y ← beta*y
	if beta != 1 {
		iy := startIdx(lenY, incY)
		if beta == 0 {
			for i := 0; i < lenY; i++ {
				y[iy] = 0
				iy += incY
			}
		} else {
			for i := 0; i < lenY; i++ {
				y[iy] *= beta
				iy += incY
			}
		}
	}
	if alpha == 0 {
		return
	}

	if !trans.IsTrans() {
		// y ← y + alpha*A*x: accumulate columns (AXPY form).
		ix := startIdx(n, incX)
		if incY == 1 {
			// Four columns per pass over y: each y[i] still takes its adds
			// in column order, so the result is bit-identical to the
			// one-column loop with a quarter of the y traffic. A group with
			// a zero coefficient goes one column at a time, skipping the
			// zero as the reference BLAS does (so 0·Inf and 0·NaN in A
			// never reach y).
			yv := y[:m]
			for j := 0; j < n; {
				if j+4 <= n {
					t0 := alpha * x[ix]
					t1 := alpha * x[ix+incX]
					t2 := alpha * x[ix+2*incX]
					t3 := alpha * x[ix+3*incX]
					if t0 != 0 && t1 != 0 && t2 != 0 && t3 != 0 {
						c0 := a[j*lda:][:len(yv)]
						c1 := a[(j+1)*lda:][:len(yv)]
						c2 := a[(j+2)*lda:][:len(yv)]
						c3 := a[(j+3)*lda:][:len(yv)]
						for i := range yv {
							s := yv[i]
							s += t0 * c0[i]
							s += t1 * c1[i]
							s += t2 * c2[i]
							s += t3 * c3[i]
							yv[i] = s
						}
						j += 4
						ix += 4 * incX
						continue
					}
				}
				t := alpha * x[ix]
				ix += incX
				if t != 0 {
					col := a[j*lda : j*lda+m]
					for i := range col {
						yv[i] += t * col[i]
					}
				}
				j++
			}
			return
		}
		for j := 0; j < n; j++ {
			t := alpha * x[ix]
			ix += incX
			if t == 0 {
				continue
			}
			iy := startIdx(m, incY)
			col := a[j*lda : j*lda+m]
			for i := 0; i < m; i++ {
				y[iy] += t * col[i]
				iy += incY
			}
		}
		return
	}

	// y ← y + alpha*Aᵀ*x: dot-product form.
	iy := startIdx(n, incY)
	for j := 0; j < n; j++ {
		col := a[j*lda : j*lda+m]
		var s float64
		if incX == 1 {
			xv := x[:m]
			for i := range col {
				s += col[i] * xv[i]
			}
		} else {
			ix := startIdx(m, incX)
			for i := 0; i < m; i++ {
				s += col[i] * x[ix]
				ix += incX
			}
		}
		y[iy] += alpha * s
		iy += incY
	}
}

// Dger computes the rank-one update A ← A + alpha*x*yᵀ where A is m×n.
func Dger(m, n int, alpha float64, x []float64, incX int, y []float64, incY int,
	a []float64, lda int) {
	if m < 0 {
		xerbla("DGER", 1, "m < 0")
	}
	if n < 0 {
		xerbla("DGER", 2, "n < 0")
	}
	checkLD("DGER", 9, "a", lda, m)
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	checkMatSize("DGER", "a", a, m, n, lda)
	checkVecSize("DGER", "x", x, m, incX)
	checkVecSize("DGER", "y", y, n, incY)

	iy := startIdx(n, incY)
	for j := 0; j < n; j++ {
		t := alpha * y[iy]
		iy += incY
		if t == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		if incX == 1 {
			xv := x[:m]
			for i := range col {
				col[i] += t * xv[i]
			}
		} else {
			ix := startIdx(m, incX)
			for i := 0; i < m; i++ {
				col[i] += t * x[ix]
				ix += incX
			}
		}
	}
}

// Dsymv computes y ← alpha*A*x + beta*y for symmetric A with only the uplo
// triangle referenced.
func Dsymv(uplo Uplo, n int, alpha float64, a []float64, lda int,
	x []float64, incX int, beta float64, y []float64, incY int) {
	if !uplo.valid() {
		xerbla("DSYMV", 1, "bad uplo")
	}
	if n < 0 {
		xerbla("DSYMV", 2, "n < 0")
	}
	checkLD("DSYMV", 5, "a", lda, n)
	if n == 0 {
		return
	}
	checkMatSize("DSYMV", "a", a, n, n, lda)
	checkVecSize("DSYMV", "x", x, n, incX)
	checkVecSize("DSYMV", "y", y, n, incY)

	iy := startIdx(n, incY)
	for i := 0; i < n; i++ {
		if beta == 0 {
			y[iy] = 0
		} else {
			y[iy] *= beta
		}
		iy += incY
	}
	if alpha == 0 {
		return
	}
	upper := uplo.isUpper()
	ix0, iy0 := startIdx(n, incX), startIdx(n, incY)
	for j := 0; j < n; j++ {
		xj := x[ix0+j*incX]
		for i := 0; i < n; i++ {
			var aij float64
			if i == j || (i < j) == upper {
				aij = a[i+j*lda]
			} else {
				aij = a[j+i*lda]
			}
			y[iy0+i*incY] += alpha * aij * xj
		}
	}
}

// Dtrmv computes x ← op(A)*x for triangular A.
func Dtrmv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int,
	x []float64, incX int) {
	if !uplo.valid() {
		xerbla("DTRMV", 1, "bad uplo")
	}
	if !trans.valid() {
		xerbla("DTRMV", 2, "bad trans")
	}
	if !diag.valid() {
		xerbla("DTRMV", 3, "bad diag")
	}
	if n < 0 {
		xerbla("DTRMV", 4, "n < 0")
	}
	checkLD("DTRMV", 6, "a", lda, n)
	if n == 0 {
		return
	}
	checkMatSize("DTRMV", "a", a, n, n, lda)
	checkVecSize("DTRMV", "x", x, n, incX)

	upper := uplo.isUpper()
	unit := diag.isUnit()
	at := func(i, j int) float64 { return a[i+j*lda] }
	x0 := startIdx(n, incX)
	xi := func(i int) int { return x0 + i*incX }

	if !trans.IsTrans() {
		if upper {
			for i := 0; i < n; i++ {
				var s float64
				if unit {
					s = x[xi(i)]
				} else {
					s = at(i, i) * x[xi(i)]
				}
				for j := i + 1; j < n; j++ {
					s += at(i, j) * x[xi(j)]
				}
				x[xi(i)] = s
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				var s float64
				if unit {
					s = x[xi(i)]
				} else {
					s = at(i, i) * x[xi(i)]
				}
				for j := 0; j < i; j++ {
					s += at(i, j) * x[xi(j)]
				}
				x[xi(i)] = s
			}
		}
		return
	}
	// x ← Aᵀ x
	if upper {
		for i := n - 1; i >= 0; i-- {
			var s float64
			if unit {
				s = x[xi(i)]
			} else {
				s = at(i, i) * x[xi(i)]
			}
			for j := 0; j < i; j++ {
				s += at(j, i) * x[xi(j)]
			}
			x[xi(i)] = s
		}
	} else {
		for i := 0; i < n; i++ {
			var s float64
			if unit {
				s = x[xi(i)]
			} else {
				s = at(i, i) * x[xi(i)]
			}
			for j := i + 1; j < n; j++ {
				s += at(j, i) * x[xi(j)]
			}
			x[xi(i)] = s
		}
	}
}

// Dtrsv solves op(A)*x = b in place (x holds b on entry, the solution on
// exit) for triangular A.
func Dtrsv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int,
	x []float64, incX int) {
	if !uplo.valid() {
		xerbla("DTRSV", 1, "bad uplo")
	}
	if !trans.valid() {
		xerbla("DTRSV", 2, "bad trans")
	}
	if !diag.valid() {
		xerbla("DTRSV", 3, "bad diag")
	}
	if n < 0 {
		xerbla("DTRSV", 4, "n < 0")
	}
	checkLD("DTRSV", 6, "a", lda, n)
	if n == 0 {
		return
	}
	checkMatSize("DTRSV", "a", a, n, n, lda)
	checkVecSize("DTRSV", "x", x, n, incX)

	upper := uplo.isUpper()
	unit := diag.isUnit()
	at := func(i, j int) float64 { return a[i+j*lda] }
	x0 := startIdx(n, incX)
	xi := func(i int) int { return x0 + i*incX }

	if !trans.IsTrans() {
		if upper {
			for i := n - 1; i >= 0; i-- {
				s := x[xi(i)]
				for j := i + 1; j < n; j++ {
					s -= at(i, j) * x[xi(j)]
				}
				if !unit {
					s /= at(i, i)
				}
				x[xi(i)] = s
			}
		} else {
			for i := 0; i < n; i++ {
				s := x[xi(i)]
				for j := 0; j < i; j++ {
					s -= at(i, j) * x[xi(j)]
				}
				if !unit {
					s /= at(i, i)
				}
				x[xi(i)] = s
			}
		}
		return
	}
	// Solve Aᵀ x = b.
	if upper {
		for i := 0; i < n; i++ {
			s := x[xi(i)]
			for j := 0; j < i; j++ {
				s -= at(j, i) * x[xi(j)]
			}
			if !unit {
				s /= at(i, i)
			}
			x[xi(i)] = s
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			s := x[xi(i)]
			for j := i + 1; j < n; j++ {
				s -= at(j, i) * x[xi(j)]
			}
			if !unit {
				s /= at(i, i)
			}
			x[xi(i)] = s
		}
	}
}
