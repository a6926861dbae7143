package strassen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// namedProgram is one level program under test and the β values it
// computes αAB + βC for (the β = 0 STRASSEN1 program overwrites C).
type namedProgram struct {
	name  string
	p     *program
	betas []float64
}

func allPrograms() []namedProgram {
	all := []float64{0, 1, 0.25}
	progs := []namedProgram{
		{"strassen1", strassen1, []float64{0}},
		{"strassen1-general", strassen1General, all},
		{"strassen2", strassen2, all},
		{"original", original, all},
	}
	for _, t := range algo.Tables() {
		tp := programsFor(t)
		progs = append(progs, namedProgram{t.Name + "/seq", tp.seq, all})
		for _, lanes := range dagLaneCounts(t) {
			progs = append(progs, namedProgram{fmt.Sprintf("%s/dag/lanes=%d", t.Name, lanes), tp.dag(lanes), all})
		}
	}
	return progs
}

// dagLaneCounts lists the lane counts the DAG tests compile a table for:
// one lane, a few, and one per product.
func dagLaneCounts(t *algo.Table) []int {
	return []int{1, 2, 3, t.R}
}

// TestProgramsExactOnUnitBlocks runs every level program through the
// interpreter on 1×1 integer blocks, where every product and sum is exact
// in float64: each must give αAB + βC exactly. DAG programs run their
// derived task graphs on a 1-worker and a 4-worker runtime.
func TestProgramsExactOnUnitBlocks(t *testing.T) {
	w1, w4 := testRuntimes()
	rng := rand.New(rand.NewSource(1301))
	for _, np := range allPrograms() {
		p := np.p
		for _, beta := range np.betas {
			for _, rt := range []*sched.Runtime{w1, w4} {
				a := intRandom(p.m, p.k, rng)
				b := intRandom(p.k, p.n, rng)
				c := intRandom(p.m, p.n, rng)
				want := c.Clone()
				alpha := 3.0
				matrix.Lin(want, matrix.Term{G: beta, Dst: true})
				blas.NaiveKernel{}.MulAdd(blas.NoTrans, blas.NoTrans, p.m, p.n, p.k, alpha,
					a.Data, a.Stride, b.Data, b.Stride, want.Data, want.Stride)
				e := &engine{policy: policy{crit: Never{}}, kern: blas.NaiveKernel{}, sub: rt}
				e.exec(p, c, matrix.ViewOf(a), matrix.ViewOf(b), alpha, beta, 0)
				if !c.Equal(want) {
					t.Fatalf("%s β=%g workers=%d: got %v, want %v", np.name, beta, rt.Workers(), c.Data, want.Data)
				}
				if p.tasks == nil {
					break // sequential programs ignore the runtime
				}
			}
		}
	}
}

// storage lists the storage cells an op slot covers: a temporary buffer,
// a block of A or B, or one or all blocks of C on a grid of cBlocks.
func storage(s slot, cBlocks int) []string {
	switch {
	case s.temp:
		return []string{fmt.Sprint("T", s.idx)}
	case s.shape == shapeC && s.idx == wholeC:
		out := make([]string, cBlocks)
		for i := range out {
			out[i] = fmt.Sprint("C", i)
		}
		return out
	}
	return []string{fmt.Sprint("ABC"[s.shape:s.shape+1], s.idx)}
}

// TestDAGOrdersConflictingOps: in every DAG compilation, any two ops that
// touch one storage cell, with at least one of them writing it, run in one
// task (in program order) or in tasks ordered by a dependency path; and
// product r+lanes follows product r, so at most lanes products are in
// flight.
func TestDAGOrdersConflictingOps(t *testing.T) {
	for _, tbl := range algo.Tables() {
		for _, lanes := range dagLaneCounts(tbl) {
			checkDAGOrders(t, fmt.Sprintf("%s lanes=%d", tbl.Name, lanes), programsFor(tbl).dag(lanes), lanes)
		}
	}
}

// checkDAGOrders checks one DAG program's conflict and lane ordering.
func checkDAGOrders(t *testing.T, name string, p *program, lanes int) {
	cBlocks := p.m * p.n
	taskOf := make([]int, len(p.ops))
	reach := make([][]bool, len(p.tasks)) // reach[j][i]: path i → j
	var prods []int
	for j, tk := range p.tasks {
		for i := tk.first; i < tk.last; i++ {
			taskOf[i] = j
		}
		if p.ops[tk.first].mul {
			prods = append(prods, j)
		}
		reach[j] = make([]bool, len(p.tasks))
		for _, d := range tk.deps {
			if d >= j {
				t.Fatalf("%s: task %d depends on later task %d", name, j, d)
			}
			reach[j][d] = true
			for i := range reach[d] {
				reach[j][i] = reach[j][i] || reach[d][i]
			}
		}
	}
	for r := lanes; r < len(prods); r++ {
		if !reach[prods[r]][prods[r-lanes]] {
			t.Fatalf("%s: product %d does not follow product %d", name, r, r-lanes)
		}
	}
	type access struct {
		cells []string
		write bool
	}
	accesses := func(o *op) []access {
		out := []access{{storage(o.dst, cBlocks), true}}
		if o.mul {
			out = append(out, access{storage(o.x, cBlocks), false}, access{storage(o.y, cBlocks), false})
			if o.acc != acc0 {
				out = append(out, access{storage(o.dst, cBlocks), false})
			}
			return out
		}
		for _, tm := range o.terms {
			out = append(out, access{storage(tm.src, cBlocks), false})
		}
		return out
	}
	overlap := func(x, y []string) bool {
		for _, a := range x {
			for _, b := range y {
				if a == b {
					return true
				}
			}
		}
		return false
	}
	for i := range p.ops {
		for j := i + 1; j < len(p.ops); j++ {
			ti, tj := taskOf[i], taskOf[j]
			if ti == tj || reach[tj][ti] {
				continue
			}
			for _, u := range accesses(&p.ops[i]) {
				for _, v := range accesses(&p.ops[j]) {
					if (u.write || v.write) && overlap(u.cells, v.cells) {
						t.Fatalf("%s: ops %d and %d conflict on %v but tasks %d and %d are unordered",
							name, i, j, u.cells, ti, tj)
					}
				}
			}
		}
	}
}

// TestWinogradDAGShape pins the default path's DAG level at every lane
// count: 4 S and 4 T formations, 7 products and 14 write-backs (one per
// nonzero of W, the first into each C block carrying its β pass) — 29
// tasks — and one A, B and P buffer per lane that forms such an operand:
// 3 buffers at one lane, 6 at two, 4S + 4T + 7P at seven.
func TestWinogradDAGShape(t *testing.T) {
	m, k, n := 8, 6, 10
	aq, bq, cq := int64((m/2)*(k/2)), int64((k/2)*(n/2)), int64((m/2)*(n/2))
	for _, tc := range []struct{ lanes, s, t int }{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {7, 4, 4}} {
		p := programsFor(algo.Default()).dag(tc.lanes)
		if len(p.tasks) != 29 {
			t.Fatalf("lanes=%d: Winograd DAG level has %d tasks, want 29", tc.lanes, len(p.tasks))
		}
		if r := p.products(); r != 7 {
			t.Fatalf("lanes=%d: %d products, want 7", tc.lanes, r)
		}
		want := int64(tc.s)*aq + int64(tc.t)*bq + int64(tc.lanes)*cq
		if got := p.words(m, k, n); got != want {
			t.Errorf("lanes=%d: DAG level words %d, want %d", tc.lanes, got, want)
		}
	}
}
