package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/sched"
)

// FuzzKernel differential-fuzzes the packed kernel against the naive oracle
// over shape, transposes, scaling, blocking, and matrix content (generated
// from the seed), and the threaded nest against the sequential one on a
// runtime of workers%4 workers. CI runs a short smoke (-fuzz with a
// deadline); the nightly workflow runs longer sessions.
func FuzzKernel(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), false, false, 1.0, 1.0, int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(4), uint8(4), false, false, 1.0, 0.0, int64(2), uint8(1), uint8(1), uint8(0))
	f.Add(uint8(5), uint8(3), uint8(7), true, false, -0.5, 1.0, int64(3), uint8(2), uint8(0), uint8(0))
	f.Add(uint8(9), uint8(9), uint8(9), false, true, 2.0, -1.0, int64(4), uint8(3), uint8(1), uint8(0))
	f.Add(uint8(17), uint8(33), uint8(25), true, true, 1.5, 0.5, int64(5), uint8(0), uint8(2), uint8(0))
	f.Add(uint8(64), uint8(64), uint8(64), false, false, 1.0, 1.0, int64(6), uint8(3), uint8(5), uint8(0))
	f.Add(uint8(31), uint8(1), uint8(63), true, false, 3.0, 0.0, int64(7), uint8(2), uint8(3), uint8(0))
	f.Add(uint8(37), uint8(29), uint8(20), false, false, 1.0, 0.5, int64(8), uint8(2), uint8(0), uint8(1))
	f.Add(uint8(40), uint8(45), uint8(19), true, false, -2.0, 1.0, int64(9), uint8(3), uint8(1), uint8(2))
	f.Add(uint8(70), uint8(13), uint8(33), false, true, 0.5, 0.0, int64(10), uint8(5), uint8(9), uint8(3))
	f.Add(uint8(9), uint8(79), uint8(8), true, true, 1.0, -1.0, int64(11), uint8(0), uint8(4), uint8(2))

	f.Fuzz(func(t *testing.T, m8, n8, k8 uint8, ta, tb bool, alpha, beta float64, seed int64, blk, mc, workers uint8) {
		m, n, kk := int(m8%80)+1, int(n8%80)+1, int(k8%80)+1
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.IsNaN(beta) || math.IsInf(beta, 0) {
			t.Skip()
		}
		if math.Abs(alpha) > 1e6 || math.Abs(beta) > 1e6 {
			t.Skip()
		}
		// Vary the blocking and dispatch mode so block-boundary logic and
		// the full/ragged tile split are fuzzed too. ModeSIMD degrades to
		// the scalar tile on hosts without a vector unit, so every case is
		// valid everywhere.
		var k *Packed
		switch blk % 6 {
		case 0:
			k = &Packed{} // cache-derived defaults, auto dispatch
		case 1:
			k = &Packed{Compat: true}
		case 2:
			k = &Packed{MC: 2 * MR, KC: 3, NC: 2 * NR}
		case 3:
			k = &Packed{MC: 16, KC: 8, NC: 12}
		case 4:
			k = &Packed{Mode: ModeSIMD}
		default:
			k = &Packed{Mode: ModeScalar, MC: 16, KC: 8, NC: 12}
		}
		transOf := func(tr bool) blas.Transpose {
			if tr {
				return blas.Trans
			}
			return blas.NoTrans
		}
		dims := func(tr bool, r, c int) (int, int) {
			if tr {
				return c, r
			}
			return r, c
		}
		rng := rand.New(rand.NewSource(seed))
		ar, ac := dims(ta, m, kk)
		br, bc := dims(tb, kk, n)
		mk := func(rows, cols int) []float64 {
			v := make([]float64, rows*cols)
			for i := range v {
				v[i] = rng.Float64()*2 - 1
			}
			return v
		}
		a := mk(ar, ac)
		b := mk(br, bc)
		c0 := mk(m, n)
		got := append([]float64(nil), c0...)
		want := append([]float64(nil), c0...)
		blas.DgemmKernel(k, transOf(ta), transOf(tb), m, n, kk, alpha, a, ar, b, br, beta, got, m)
		blas.DgemmKernel(blas.NaiveKernel{}, transOf(ta), transOf(tb), m, n, kk, alpha, a, ar, b, br, beta, want, m)
		scale := math.Abs(alpha)*float64(kk) + math.Abs(beta) + 1
		tol := 1e-13 * scale
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > tol {
				t.Fatalf("m=%d n=%d k=%d ta=%v tb=%v alpha=%g beta=%g blk=%d: diff %g at %d",
					m, n, kk, ta, tb, alpha, beta, blk%6, d, i)
			}
		}
		// The B̃ layout: MC drawn from one register panel up to every row
		// (one sliver kept) moves no bit.
		if alpha != 0 {
			tk := drawMC(k, m, mc)
			what := fmt.Sprintf("m=%d n=%d k=%d ta=%v tb=%v blk=%d", m, n, kk, ta, tb, blk%6)
			onLayout(t, what, tk, m, n, kk, [][]float64{got}, func(tk *Packed) [][]float64 {
				c := append([]float64(nil), c0...)
				blas.DgemmKernel(tk, transOf(ta), transOf(tb), m, n, kk, alpha, a, ar, b, br, beta, c, m)
				return [][]float64{c}
			})
		}
		// The threaded nest: the same bits as the sequential one, and the
		// arena peaks at CallWorkspace.
		if w := int(workers % 4); w > 0 && alpha != 0 {
			rt := sched.New(w, seed)
			defer rt.Close()
			tk := drawMC(k, m, mc)
			want := append([]float64(nil), c0...)
			tk.MulAdd(transOf(ta), transOf(tb), m, n, kk, alpha, a, ar, b, br, want, m)
			what := fmt.Sprintf("m=%d n=%d k=%d ta=%v tb=%v blk=%d workers=%d", m, n, kk, ta, tb, blk%6, w)
			onRun(t, what, tk, tk.CallWorkspace(w, 1, m, n, kk), [][]float64{want}, func(tk *Packed) [][]float64 {
				c := append([]float64(nil), c0...)
				tk.MulAddTasks(rt, transOf(ta), transOf(tb), m, n, kk, alpha, a, ar, b, br, c, m)
				return [][]float64{c}
			})
		}
	})
}

// drawMC is k with its MC drawn by sel: one to all of an m-row call's
// register panels per MC block.
func drawMC(k *Packed, m int, sel uint8) *Packed {
	mr := k.impl().mr
	return withMC(k, mr*(1+int(sel)%((m+mr-1)/mr)))
}
