package matrix

import "fmt"

// This file contains the elementwise "G operations" of the paper's cost model
// (matrix add/subtract/scale-accumulate). They are the stage (1), (2) and (4)
// kernels of the Winograd schedules. Each accepts transpose-aware Views as
// sources so that DGEFMM's transposed-input cases need no extra storage.
//
// A source that pads (View.PadRows/PadCols) enters every element past its
// stored part as +0.0, through the operation a zero-padded copy would run:
// a missing x in a − x is 0 − x, not −x, so signed zeros and NaNs come out
// as they would on the copy. Each operation runs its loops on the part
// every source stores and the elementwise formula on the rest (rim).

func checkSameShape(op string, r, c int, vs ...View) {
	for _, v := range vs {
		if v.Rows != r || v.Cols != c {
			panic(fmt.Sprintf("matrix: %s shape mismatch: want %dx%d, got %dx%d", op, r, c, v.Rows, v.Cols))
		}
	}
}

// stored returns the leading r×c part of an rows×cols domain that every
// source stores (0×0 when that part is empty), and whether some source
// pads the rest.
func stored(rows, cols int, vs ...View) (r, c int, pads bool) {
	r, c = rows, cols
	for _, v := range vs {
		if v.Padded() {
			r, c, pads = min(r, v.Rows-v.PadRows), min(c, v.Cols-v.PadCols), true
		}
	}
	if r == 0 || c == 0 {
		r, c = 0, 0
	}
	return r, c, pads
}

// rim sets every element of dst outside its leading r×c part to
// f(i, j, dst(i, j)).
func rim(dst *Dense, r, c int, f func(i, j int, d float64) float64) {
	for j := 0; j < dst.Cols; j++ {
		lo := r
		if j >= c {
			lo = 0
		}
		col := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
		for i := lo; i < len(col); i++ {
			col[i] = f(i, j, col[i])
		}
	}
}

// Add computes dst = a + b.
func Add(dst *Dense, a, b View) {
	checkSameShape("Add", dst.Rows, dst.Cols, a, b)
	if r, c, pads := stored(dst.Rows, dst.Cols, a, b); pads {
		Add(dst.Slice(0, 0, r, c), a.Slice(0, 0, r, c), b.Slice(0, 0, r, c))
		rim(dst, r, c, func(i, j int, _ float64) float64 { return a.At(i, j) + b.At(i, j) })
		return
	}
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
			d[i] = a.at(i, j) + b.at(i, j)
		}
	}
}

// Sub computes dst = a - b.
func Sub(dst *Dense, a, b View) {
	checkSameShape("Sub", dst.Rows, dst.Cols, a, b)
	if r, c, pads := stored(dst.Rows, dst.Cols, a, b); pads {
		Sub(dst.Slice(0, 0, r, c), a.Slice(0, 0, r, c), b.Slice(0, 0, r, c))
		rim(dst, r, c, func(i, j int, _ float64) float64 { return a.At(i, j) - b.At(i, j) })
		return
	}
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
			d[i] = a.at(i, j) - b.at(i, j)
		}
	}
}

// AddAssign computes dst += x.
func AddAssign(dst *Dense, x View) {
	checkSameShape("AddAssign", dst.Rows, dst.Cols, x)
	if r, c, pads := stored(dst.Rows, dst.Cols, x); pads {
		AddAssign(dst.Slice(0, 0, r, c), x.Slice(0, 0, r, c))
		rim(dst, r, c, func(i, j int, d float64) float64 { return d + x.At(i, j) })
		return
	}
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
			d[i] += x.at(i, j)
		}
	}
}

// SubAssign computes dst -= x.
func SubAssign(dst *Dense, x View) {
	checkSameShape("SubAssign", dst.Rows, dst.Cols, x)
	if r, c, pads := stored(dst.Rows, dst.Cols, x); pads {
		SubAssign(dst.Slice(0, 0, r, c), x.Slice(0, 0, r, c))
		rim(dst, r, c, func(i, j int, d float64) float64 { return d - x.At(i, j) })
		return
	}
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
			d[i] -= x.at(i, j)
		}
	}
}

// RevSubAssign computes dst = x - dst.
func RevSubAssign(dst *Dense, x View) {
	checkSameShape("RevSubAssign", dst.Rows, dst.Cols, x)
	if r, c, pads := stored(dst.Rows, dst.Cols, x); pads {
		RevSubAssign(dst.Slice(0, 0, r, c), x.Slice(0, 0, r, c))
		rim(dst, r, c, func(i, j int, d float64) float64 { return x.At(i, j) - d })
		return
	}
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
			d[i] = x.at(i, j) - d[i]
		}
	}
}

// Axpby computes dst = alpha*x + beta*dst. It is the quadrant scale/update
// kernel of STRASSEN2 (e.g. C12 ← β·C12 + R3). As in the BLAS, beta = 0
// means dst is written, not read: dst = alpha*x even where dst holds NaN,
// Inf or never-written workspace. Both products round before the add on
// every architecture (no fused multiply-add), so padded and stored
// elements round alike.
func Axpby(dst *Dense, alpha float64, x View, beta float64) {
	checkSameShape("Axpby", dst.Rows, dst.Cols, x)
	switch {
	case beta == 0:
		CopyScaled(dst, alpha, x)
	case !x.Trans && beta == 1 && alpha == 1:
		AddAssign(dst, x)
	case x.Padded():
		r, c, _ := stored(dst.Rows, dst.Cols, x)
		Axpby(dst.Slice(0, 0, r, c), alpha, x.Slice(0, 0, r, c), beta)
		rim(dst, r, c, func(i, j int, d float64) float64 { return float64(alpha*x.At(i, j)) + float64(beta*d) })
	case !x.Trans:
		for j := 0; j < dst.Cols; j++ {
			d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
			xv := x.Data[j*x.Stride : j*x.Stride+dst.Rows]
			for i := range d {
				d[i] = float64(alpha*xv[i]) + float64(beta*d[i])
			}
		}
	default:
		for j := 0; j < dst.Cols; j++ {
			d := dst.Data[j*dst.Stride : j*dst.Stride+dst.Rows]
			for i := range d {
				d[i] = float64(alpha*x.at(i, j)) + float64(beta*d[i])
			}
		}
	}
}

// CopyScaled computes dst = alpha*x.
func CopyScaled(dst *Dense, alpha float64, x View) {
	checkSameShape("CopyScaled", dst.Rows, dst.Cols, x)
	if r, c, pads := stored(dst.Rows, dst.Cols, x); pads {
		CopyScaled(dst.Slice(0, 0, r, c), alpha, x.Slice(0, 0, r, c))
		rim(dst, r, c, func(i, j int, _ float64) float64 { return alpha * x.At(i, j) })
		return
	}
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
			d[i] = alpha * x.at(i, j)
		}
	}
}

// AddSubAssign computes dst = x - y - dst in one pass. It implements the
// STRASSEN1 tail step C21 ← C22 − C21 − C11 without an extra temporary.
func AddSubAssign(dst *Dense, x, y View) {
	checkSameShape("AddSubAssign", dst.Rows, dst.Cols, x, y)
	if r, c, pads := stored(dst.Rows, dst.Cols, x, y); pads {
		AddSubAssign(dst.Slice(0, 0, r, c), x.Slice(0, 0, r, c), y.Slice(0, 0, r, c))
		rim(dst, r, c, func(i, j int, d float64) float64 { return x.At(i, j) - y.At(i, j) - d })
		return
	}
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
			d[i] = x.at(i, j) - y.at(i, j) - d[i]
		}
	}
}
