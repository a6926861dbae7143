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
		progs = append(progs,
			namedProgram{t.Name + "/seq", tp.seq, all},
			namedProgram{t.Name + "/dag", tp.dag, all})
	}
	return progs
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
				scaleInPlace(want, beta)
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
// task (in program order) or in tasks ordered by a dependency path.
func TestDAGOrdersConflictingOps(t *testing.T) {
	for _, tbl := range algo.Tables() {
		p := programsFor(tbl).dag
		cBlocks := p.m * p.n
		taskOf := make([]int, len(p.ops))
		reach := make([][]bool, len(p.tasks)) // reach[j][i]: path i → j
		for j, tk := range p.tasks {
			for i := tk.first; i < tk.last; i++ {
				taskOf[i] = j
			}
			reach[j] = make([]bool, len(p.tasks))
			for _, d := range tk.deps {
				if d >= j {
					t.Fatalf("%s: task %d depends on later task %d", tbl.Name, j, d)
				}
				reach[j][d] = true
				for i := range reach[d] {
					reach[j][i] = reach[j][i] || reach[d][i]
				}
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
								tbl.Name, i, j, u.cells, ti, tj)
						}
					}
				}
			}
		}
	}
}

// TestWinogradDAGShape pins the default path's DAG level: 4 S and 4 T
// formations, 7 products and 4 write-backs — 19 tasks — with 4·mk/4 +
// 4·kn/4 + 7·mn/4 words of workspace.
func TestWinogradDAGShape(t *testing.T) {
	p := programsFor(algo.Default()).dag
	if len(p.tasks) != 19 {
		t.Fatalf("Winograd DAG level has %d tasks, want 19", len(p.tasks))
	}
	if r := p.products(); r != 7 {
		t.Fatalf("%d products, want 7", r)
	}
	m, k, n := 8, 6, 10
	want := int64(4*(m/2)*(k/2) + 4*(k/2)*(n/2) + 7*(m/2)*(n/2))
	if got := p.words(m, k, n); got != want {
		t.Errorf("DAG level words %d, want %d", got, want)
	}
}

// TestMalformedLinPanics: a lin op whose term pattern has no matrix
// kernel is rejected when the program is built.
func TestMalformedLinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("building a three-term sum into a fresh slot did not panic")
		}
	}()
	A := grid(shapeA, 4)
	(&program{m: 2, k: 2, n: 2, temps: [][]shape{{shapeA}},
		ops: []op{lin(tmp(0, shapeA), plus(A[0]), plus(A[1]), plus(A[2]))}}).build()
}
