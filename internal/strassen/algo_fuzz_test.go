package strassen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/blas"
	"repro/internal/matrix"
)

// deriveTable builds a random valid coefficient table by applying
// Brent-preserving transforms to a registered one: a product permutation
// (the bilinear form is a sum over products, so order is free), per-product
// sign flips on a pair of the three columns (the signs cancel in the
// U·V·W product), and per-product power-of-two rescalings of U against V
// (exact in floating point, so the Brent sums are unchanged bit for bit).
// The result must still pass the Brent check — algo.New re-verifies — and
// must still multiply correctly through the generic executor.
func deriveTable(base *algo.Table, xform int64) (*algo.Table, error) {
	rng := rand.New(rand.NewSource(xform))
	rows := func(src [][]float64) [][]float64 {
		out := make([][]float64, len(src))
		for i, r := range src {
			out[i] = append([]float64(nil), r...)
		}
		return out
	}
	u, v, w := rows(base.U), rows(base.V), rows(base.W)

	// Product permutation: shuffle the columns of U, V and W together.
	perm := rng.Perm(base.R)
	col := func(m [][]float64, j int) []float64 {
		c := make([]float64, len(m))
		for i := range m {
			c[i] = m[i][j]
		}
		return c
	}
	setCol := func(m [][]float64, j int, c []float64) {
		for i := range m {
			m[i][j] = c[i]
		}
	}
	for _, m := range [][][]float64{u, v, w} {
		cols := make([][]float64, base.R)
		for j := range cols {
			cols[j] = col(m, j)
		}
		for j, p := range perm {
			setCol(m, j, cols[p])
		}
	}

	scaleCol := func(m [][]float64, j int, s float64) {
		for i := range m {
			m[i][j] *= s
		}
	}
	for r := 0; r < base.R; r++ {
		// Sign flip on a pair of columns: (U,V), (U,W), (V,W) or none.
		switch rng.Intn(4) {
		case 0:
			scaleCol(u, r, -1)
			scaleCol(v, r, -1)
		case 1:
			scaleCol(u, r, -1)
			scaleCol(w, r, -1)
		case 2:
			scaleCol(v, r, -1)
			scaleCol(w, r, -1)
		}
		// Exact rescale: U·s against V/s, powers of two only.
		if s := []float64{1, 1, 2, 0.5, 4, 0.25}[rng.Intn(6)]; s != 1 {
			scaleCol(u, r, s)
			scaleCol(v, r, 1/s)
		}
	}
	return algo.New("derived", base.M, base.K, base.N, u, v, w)
}

// FuzzAlgoTable fuzzes the coefficient-table machinery end to end: a
// random valid table (Brent-preserving transforms of a registered one)
// multiplying random operands through the generic executor must match the
// naive oracle within the table's Growth-scaled Higham bound. A transform
// that fails algo.New's re-verification, or a verified table that
// multiplies wrongly, is a found bug in the checker or the executor.
func FuzzAlgoTable(f *testing.F) {
	f.Add(int64(1), byte(0), int64(7), byte(12), byte(12), byte(12), 1.0, 0.0)
	f.Add(int64(2), byte(1), int64(99), byte(9), byte(5), byte(13), 1.5, 0.5)
	f.Add(int64(3), byte(2), int64(3), byte(18), byte(8), byte(18), -2.0, 1.0)
	f.Add(int64(4), byte(3), int64(42), byte(27), byte(27), byte(27), 0.25, -1.0)
	f.Add(int64(5), byte(4), int64(1234), byte(17), byte(4), byte(33), 1.0, 2.0)
	tables := algo.Tables()
	f.Fuzz(func(t *testing.T, seed int64, tb byte, xform int64, mb, kb, nb byte, alpha, beta float64) {
		base := tables[int(tb)%len(tables)]
		tbl, err := deriveTable(base, xform)
		if err != nil {
			t.Fatalf("Brent-preserving transform %d of %s rejected: %v", xform, base.Name, err)
		}
		m, k, n := int(mb)%40+1, int(kb)%40+1, int(nb)%40+1
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			alpha = 1
		}
		if math.IsNaN(beta) || math.IsInf(beta, 0) {
			beta = 0
		}
		alpha, beta = math.Remainder(alpha, 4), math.Remainder(beta, 4)

		rng := rand.New(rand.NewSource(seed))
		a := matrix.NewRandom(m, k, rng)
		b := matrix.NewRandom(k, n, rng)
		c := matrix.NewRandom(m, n, rng)
		want := refMul(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c)

		e := &engine{policy: policy{crit: Simple{Tau: 4}, tbl: tbl}, kern: blas.NaiveKernel{}}
		e.mul(c, matrix.ViewOf(a), matrix.ViewOf(b), alpha, beta, 0)

		// Higham-style bound: the table's growth factor compounds per
		// recursion level; scale the base tolerance by it, with headroom
		// for the scalars.
		depth := 0
		for mm, kk, nn := m, k, n; mm > 4 && kk > 4 && nn > 4; depth++ {
			mm, kk, nn = mm/tbl.M, kk/tbl.K, nn/tbl.N
		}
		bound := tol(k) * math.Pow(tbl.Growth()+2, float64(depth)) *
			(math.Abs(alpha) + math.Abs(beta) + 1)
		if d := matrix.MaxAbsDiff(c, want); !(d <= bound) {
			t.Fatalf("table %s⊳%d m=%d k=%d n=%d α=%g β=%g: |Δ|=%g exceeds %g",
				base.Name, xform, m, k, n, alpha, beta, d, bound)
		}
	})
}
