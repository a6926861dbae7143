package matrix

import "fmt"

// View is a read-only operand view of a stored matrix, optionally transposed.
// It represents op(X) where op is the identity or transpose, without copying:
// Rows and Cols are the *logical* dimensions of op(X). All Strassen quadrant
// bookkeeping (including the transposed input cases of DGEMM) is expressed
// through Views, so transposition costs no memory.
//
// A view may also store only part of its logical shape: the trailing
// PadRows rows and PadCols columns of op(X) are not stored and read as
// +0.0, so Data holds just the leading (Rows−PadRows)×(Cols−PadCols) part.
// It behaves as a zero-padded copy of the stored part, without the copy: the
// elementwise operations of ops.go read the padding through the same
// arithmetic as a stored +0.0.
type View struct {
	Rows, Cols       int
	Stride           int
	Trans            bool
	Data             []float64
	PadRows, PadCols int
}

// ViewOf wraps m (untransposed).
func ViewOf(m *Dense) View {
	return View{Rows: m.Rows, Cols: m.Cols, Stride: m.Stride, Data: m.Data}
}

// ViewOp wraps m as op(m): trans=false gives m, trans=true gives mᵀ.
func ViewOp(m *Dense, trans bool) View {
	if trans {
		return View{Rows: m.Cols, Cols: m.Rows, Stride: m.Stride, Trans: true, Data: m.Data}
	}
	return ViewOf(m)
}

// At returns logical element (i, j) of op(X), +0.0 past the stored part.
func (v View) At(i, j int) float64 {
	if i >= v.Rows-v.PadRows || j >= v.Cols-v.PadCols {
		return 0
	}
	return v.at(i, j)
}

// at returns stored element (i, j) of op(X) without the padding check: the
// inner loops of ops.go call it once stored has split the padding off.
func (v View) at(i, j int) float64 {
	if v.Trans {
		i, j = j, i
	}
	return v.Data[i+j*v.Stride]
}

// Slice returns the logical r×c subview with top-left corner (i, j) of op(X).
// For a transposed view this maps to the transposed region of the underlying
// storage, which is what makes quadrant views of op(A) free. The subview
// stores what v stores of the region: a block overhanging v's stored part
// pads the rest.
func (v View) Slice(i, j, r, c int) View {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > v.Rows || j+c > v.Cols {
		panic(fmt.Sprintf("matrix: View.Slice(%d,%d,%d,%d) out of range %dx%d", i, j, r, c, v.Rows, v.Cols))
	}
	out := View{Rows: r, Cols: c, Stride: v.Stride, Trans: v.Trans}
	if r == 0 || c == 0 {
		return out
	}
	hr := min(max(v.Rows-v.PadRows-i, 0), r)
	hc := min(max(v.Cols-v.PadCols-j, 0), c)
	if hr == 0 || hc == 0 {
		hr, hc = 0, 0 // a region past the stored part stores nothing
	}
	out.PadRows, out.PadCols = r-hr, c-hc
	if hr == 0 {
		return out
	}
	si, sj, sr, sc := i, j, hr, hc
	if v.Trans {
		si, sj, sr, sc = j, i, hc, hr
	}
	off := si + sj*v.Stride
	end := off + (sc-1)*v.Stride + sr
	out.Data = v.Data[off:end]
	return out
}

// PadTo returns v extended to the logical r×c shape: the rows and columns
// past v's stored part read as +0.0. r and c must cover the stored part.
func (v View) PadTo(r, c int) View {
	hr, hc := v.Rows-v.PadRows, v.Cols-v.PadCols
	if r < hr || c < hc {
		panic(fmt.Sprintf("matrix: View.PadTo(%d,%d) below the stored %dx%d", r, c, hr, hc))
	}
	v.Rows, v.Cols, v.PadRows, v.PadCols = r, c, r-hr, c-hc
	return v
}

// Stored returns the part of v that is stored, as an unpadded view.
func (v View) Stored() View {
	return v.Slice(0, 0, v.Rows-v.PadRows, v.Cols-v.PadCols)
}

// Padded reports whether v pads part of its logical shape.
func (v View) Padded() bool { return v.PadRows != 0 || v.PadCols != 0 }

// Materialize copies op(X) into dst (shape must match logical dims),
// writing +0.0 where v pads.
func (v View) Materialize(dst *Dense) {
	if dst.Rows != v.Rows || dst.Cols != v.Cols {
		panic(fmt.Sprintf("matrix: Materialize shape mismatch: %dx%d vs %dx%d", dst.Rows, dst.Cols, v.Rows, v.Cols))
	}
	if r, c, pads := stored(v.Rows, v.Cols, v); pads {
		v.Slice(0, 0, r, c).Materialize(dst.Slice(0, 0, r, c))
		rim(dst, r, c, func(int, int, float64) float64 { return 0 })
		return
	}
	if !v.Trans {
		for j := 0; j < v.Cols; j++ {
			copy(dst.Data[j*dst.Stride:j*dst.Stride+v.Rows], v.Data[j*v.Stride:j*v.Stride+v.Rows])
		}
		return
	}
	for j := 0; j < v.Cols; j++ {
		dcol := dst.Data[j*dst.Stride : j*dst.Stride+v.Rows]
		for i := range dcol {
			dcol[i] = v.Data[j+i*v.Stride]
		}
	}
}

// Dense materializes op(X) into a freshly allocated Dense.
func (v View) Dense() *Dense {
	out := NewDense(v.Rows, v.Cols)
	v.Materialize(out)
	return out
}
