package matrix

import "fmt"

// This file holds the one elementwise kernel of the paper's cost model. Every
// "G operation" of the Winograd schedules — the operand sums of stages (1)
// and (2) and the C combinations of stage (4) — is a linear combination
// dst ← Σ gᵢ·Xᵢ of blocks, and Lin computes all of them. Sources are
// transpose-aware Views, so DGEFMM's transposed-input cases need no extra
// storage.
//
// A source that pads (View.PadRows/PadCols) enters every element past its
// stored part as +0.0, through the arithmetic a zero-padded copy would run:
// a missing x in a − x is 0 − x, not −x, so signed zeros and NaNs come out
// as they would on the copy. Lin runs its loops on the part every source
// stores and the elementwise formula on the rest (the rim).

// Term is one g·X summand of Lin. A term with Dst set stands for dst's value
// before the call; its X is unused.
type Term struct {
	G   float64
	X   View
	Dst bool
}

// linChunk is the number of rows Lin forms at once when it stages a column
// in stack buffers: a transposed source's column is gathered into one, and a
// sum of more than four terms carries its partial sum in one.
const linChunk = 64

// Lin computes dst ← Σ gᵢ·Xᵢ elementwise, adding the terms left to right in
// their order.
//   - A term with Dst set reads dst's old value.
//   - A term with g = 0 reads nothing and drops out, as BLAS β = 0 does; a
//     sum left with no term writes +0.0, even over NaN.
//   - Each product g·x is rounded before it is added (float64(g*x)), so no
//     architecture contracts it into a fused multiply-add. For g = ±1 the
//     product is exact, so x + (−1)·y is x − y bit for bit.
//   - Transposed and padded sources are handled once, for every term count;
//     the loops are specialized by term count (1–4), and longer sums run as
//     chains of them.
func Lin(dst *Dense, terms ...Term) {
	var buf [4]Term
	ts := buf[:0]
	staged := false
	r, c := dst.Rows, dst.Cols
	for _, t := range terms {
		if !t.Dst && (t.X.Rows != dst.Rows || t.X.Cols != dst.Cols) {
			panic(fmt.Sprintf("matrix: Lin shape mismatch: want %dx%d, got %dx%d", dst.Rows, dst.Cols, t.X.Rows, t.X.Cols))
		}
		if t.G == 0 {
			continue
		}
		ts = append(ts, t)
		if !t.Dst {
			staged = staged || t.X.Trans
			r, c = min(r, t.X.Rows-t.X.PadRows), min(c, t.X.Cols-t.X.PadCols)
		}
	}
	switch {
	case dst.Rows == 0 || dst.Cols == 0:
		return
	case len(ts) == 0:
		dst.Zero()
		return
	case len(ts) == 1 && ts[0].Dst && ts[0].G == 1:
		return // dst ← dst
	}
	if r == 0 {
		c = 0 // a source stores no rows: all of dst is rim
	}
	d := strided{dst.Data, dst.Stride}
	if staged || len(ts) > 4 {
		var st staging
		for j := 0; j < c; j++ {
			st.column(d.col(j, r), ts, j)
		}
	} else {
		var ys [4]strided
		var gs [4]float64
		for k, t := range ts {
			ys[k], gs[k] = d, t.G
			if !t.Dst {
				ys[k] = strided{t.X.Data, t.X.Stride}
			}
		}
		linN(r, c, d, len(ts), &ys, &gs)
	}
	for j := 0; j < dst.Cols; j++ {
		lo := r
		if j >= c {
			lo = 0
		}
		for i := lo; i < dst.Rows; i++ {
			dst.Data[i+j*dst.Stride] = linAt(ts, i, j, dst.Data[i+j*dst.Stride])
		}
	}
}

// linAt is Lin's formula at one element (i, j) whose old dst value is d,
// reading padding as +0.0.
func linAt(ts []Term, i, j int, d float64) float64 {
	var acc float64
	for k, t := range ts {
		x := d
		if !t.Dst {
			x = t.X.At(i, j)
		}
		if k == 0 {
			acc = float64(t.G * x)
		} else {
			acc += float64(t.G * x)
		}
	}
	return acc
}

// strided is column-major storage: column j starts at data[j*ld].
type strided struct {
	data []float64
	ld   int
}

// col returns the first rows words of column j.
func (s strided) col(j, rows int) []float64 { return s.data[j*s.ld:][:rows] }

// staging holds the stack buffers of a staged column: one gathered column
// chunk per transposed source, and a partial sum.
type staging struct {
	src [4][linChunk]float64
	acc [linChunk]float64
}

// column forms d, rows [0, len(d)) of dst's column j, from ts, which every
// source stores there, in chunks of linChunk rows.
func (st *staging) column(d []float64, ts []Term, j int) {
	for lo := 0; lo < len(d); lo += linChunk {
		dc := d[lo:min(lo+linChunk, len(d))]
		out := dc
		if len(ts) > 4 {
			out = st.acc[:len(dc)]
		}
		var ys [4]strided
		var gs [4]float64
		for k := 0; k < len(ts); {
			n := 0
			if k > 0 {
				ys[0], gs[0], n = strided{data: out}, 1, 1 // the partial sum so far
			}
			for ; n < 4 && k < len(ts); n, k = n+1, k+1 {
				ys[n], gs[n] = strided{data: st.source(n, ts[k], dc, j, lo)}, ts[k].G
			}
			linN(len(dc), 1, strided{data: out}, n, &ys, &gs)
		}
		if len(ts) > 4 {
			copy(dc, out)
		}
	}
}

// source returns rows [lo, lo+len(dc)) of term t's column j: dst's own rows
// dc, a slice of an untransposed source, or a transposed source's gathered
// into buffer k.
func (st *staging) source(k int, t Term, dc []float64, j, lo int) []float64 {
	switch {
	case t.Dst:
		return dc
	case !t.X.Trans:
		return t.X.Data[j*t.X.Stride+lo:][:len(dc)]
	}
	b := st.src[k][:len(dc)]
	x := t.X.Data[j+lo*t.X.Stride:]
	for i := range b {
		b[i] = x[i*t.X.Stride]
	}
	return b
}

// linN sets the leading rows×cols block of d to Σ g[k]·ys[k] over k < n,
// left to right. A ys[k] may be d itself. Two-term sums x ± y, most of the
// Winograd schedules' lin ops, skip the multiplies by ±1: traced square_b0
// runs measured strassen.addsub.gbps about 5% higher with those loops.
func linN(rows, cols int, d strided, n int, ys *[4]strided, g *[4]float64) {
	g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
	switch n {
	case 1:
		for j := 0; j < cols; j++ {
			dc, y0 := d.col(j, rows), ys[0].col(j, rows)
			if g0 == 1 {
				copy(dc, y0)
				continue
			}
			for i := range dc {
				dc[i] = g0 * y0[i]
			}
		}
	case 2:
		for j := 0; j < cols; j++ {
			dc, y0, y1 := d.col(j, rows), ys[0].col(j, rows), ys[1].col(j, rows)
			switch {
			case g0 == 1 && g1 == 1:
				for i := range dc {
					dc[i] = y0[i] + y1[i]
				}
			case g0 == 1 && g1 == -1:
				for i := range dc {
					dc[i] = y0[i] - y1[i]
				}
			default:
				for i := range dc {
					dc[i] = float64(g0*y0[i]) + float64(g1*y1[i])
				}
			}
		}
	case 3:
		for j := 0; j < cols; j++ {
			dc, y0, y1, y2 := d.col(j, rows), ys[0].col(j, rows), ys[1].col(j, rows), ys[2].col(j, rows)
			for i := range dc {
				dc[i] = float64(g0*y0[i]) + float64(g1*y1[i]) + float64(g2*y2[i])
			}
		}
	case 4:
		for j := 0; j < cols; j++ {
			dc, y0, y1, y2, y3 := d.col(j, rows), ys[0].col(j, rows), ys[1].col(j, rows), ys[2].col(j, rows), ys[3].col(j, rows)
			for i := range dc {
				dc[i] = float64(g0*y0[i]) + float64(g1*y1[i]) + float64(g2*y2[i]) + float64(g3*y3[i])
			}
		}
	}
}
