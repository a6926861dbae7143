package matrix

import "fmt"

// This file contains the elementwise "G operations" of the paper's cost model
// (matrix add/subtract/scale-accumulate). They are the stage (1), (2) and (4)
// kernels of the Winograd schedules. Each accepts transpose-aware Views as
// sources so that DGEFMM's transposed-input cases need no extra storage.

func checkSameShape(op string, r, c int, vs ...View) {
	for _, v := range vs {
		if v.Rows != r || v.Cols != c {
			panic(fmt.Sprintf("matrix: %s shape mismatch: want %dx%d, got %dx%d", op, r, c, v.Rows, v.Cols))
		}
	}
}

// Add computes dst = a + b.
func Add(dst *Dense, a, b View) {
	checkSameShape("Add", dst.Rows, dst.Cols, a, b)
	if !a.Trans && !b.Trans {
		for j := 0; j < dst.Cols; j++ {
			d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
			av := a.Data[j*a.Stride : j*a.Stride+dst.Rows]
			bv := b.Data[j*b.Stride : j*b.Stride+dst.Rows]
			for i := range d {
				d[i] = av[i] + bv[i]
			}
		}
		return
	}
	for j := 0; j < dst.Cols; j++ {
		d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
		for i := range d {
			d[i] = a.At(i, j) + b.At(i, j)
		}
	}
}

// Sub computes dst = a - b.
func Sub(dst *Dense, a, b View) {
	checkSameShape("Sub", dst.Rows, dst.Cols, a, b)
	if !a.Trans && !b.Trans {
		for j := 0; j < dst.Cols; j++ {
			d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
			av := a.Data[j*a.Stride : j*a.Stride+dst.Rows]
			bv := b.Data[j*b.Stride : j*b.Stride+dst.Rows]
			for i := range d {
				d[i] = av[i] - bv[i]
			}
		}
		return
	}
	for j := 0; j < dst.Cols; j++ {
		d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
		for i := range d {
			d[i] = a.At(i, j) - b.At(i, j)
		}
	}
}

// AddAssign computes dst += x.
func AddAssign(dst *Dense, x View) {
	checkSameShape("AddAssign", dst.Rows, dst.Cols, x)
	if !x.Trans {
		for j := 0; j < dst.Cols; j++ {
			d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
			xv := x.Data[j*x.Stride : j*x.Stride+dst.Rows]
			for i := range d {
				d[i] += xv[i]
			}
		}
		return
	}
	for j := 0; j < dst.Cols; j++ {
		d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
		for i := range d {
			d[i] += x.At(i, j)
		}
	}
}

// SubAssign computes dst -= x.
func SubAssign(dst *Dense, x View) {
	checkSameShape("SubAssign", dst.Rows, dst.Cols, x)
	if !x.Trans {
		for j := 0; j < dst.Cols; j++ {
			d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
			xv := x.Data[j*x.Stride : j*x.Stride+dst.Rows]
			for i := range d {
				d[i] -= xv[i]
			}
		}
		return
	}
	for j := 0; j < dst.Cols; j++ {
		d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
		for i := range d {
			d[i] -= x.At(i, j)
		}
	}
}

// RevSubAssign computes dst = x - dst.
func RevSubAssign(dst *Dense, x View) {
	checkSameShape("RevSubAssign", dst.Rows, dst.Cols, x)
	if !x.Trans {
		for j := 0; j < dst.Cols; j++ {
			d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
			xv := x.Data[j*x.Stride : j*x.Stride+dst.Rows]
			for i := range d {
				d[i] = xv[i] - d[i]
			}
		}
		return
	}
	for j := 0; j < dst.Cols; j++ {
		d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
		for i := range d {
			d[i] = x.At(i, j) - d[i]
		}
	}
}

// Axpby computes dst = alpha*x + beta*dst. It is the quadrant scale/update
// kernel of STRASSEN2 (e.g. C12 ← β·C12 + R3). As in the BLAS, beta = 0
// means dst is written, not read: dst = alpha*x even where dst holds NaN,
// Inf or never-written workspace.
func Axpby(dst *Dense, alpha float64, x View, beta float64) {
	checkSameShape("Axpby", dst.Rows, dst.Cols, x)
	switch {
	case beta == 0:
		CopyScaled(dst, alpha, x)
	case !x.Trans && beta == 1 && alpha == 1:
		AddAssign(dst, x)
	case !x.Trans:
		for j := 0; j < dst.Cols; j++ {
			d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
			xv := x.Data[j*x.Stride : j*x.Stride+dst.Rows]
			for i := range d {
				d[i] = alpha*xv[i] + beta*d[i]
			}
		}
	default:
		for j := 0; j < dst.Cols; j++ {
			d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
			for i := range d {
				d[i] = alpha*x.At(i, j) + beta*d[i]
			}
		}
	}
}

// CopyScaled computes dst = alpha*x.
func CopyScaled(dst *Dense, alpha float64, x View) {
	checkSameShape("CopyScaled", dst.Rows, dst.Cols, x)
	if !x.Trans {
		for j := 0; j < dst.Cols; j++ {
			d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
			xv := x.Data[j*x.Stride : j*x.Stride+dst.Rows]
			for i := range d {
				d[i] = alpha * xv[i]
			}
		}
		return
	}
	for j := 0; j < dst.Cols; j++ {
		d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
		for i := range d {
			d[i] = alpha * x.At(i, j)
		}
	}
}

// AddSubAssign computes dst = x - y - dst in one pass. It implements the
// STRASSEN1 tail step C21 ← C22 − C21 − C11 without an extra temporary.
func AddSubAssign(dst *Dense, x, y View) {
	checkSameShape("AddSubAssign", dst.Rows, dst.Cols, x, y)
	if !x.Trans && !y.Trans {
		for j := 0; j < dst.Cols; j++ {
			d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
			xv := x.Data[j*x.Stride : j*x.Stride+dst.Rows]
			yv := y.Data[j*y.Stride : j*y.Stride+dst.Rows]
			for i := range d {
				d[i] = xv[i] - yv[i] - d[i]
			}
		}
		return
	}
	for j := 0; j < dst.Cols; j++ {
		d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
		for i := range d {
			d[i] = x.At(i, j) - y.At(i, j) - d[i]
		}
	}
}
