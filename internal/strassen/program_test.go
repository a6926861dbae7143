package strassen

import (
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/blas"
	"repro/internal/matrix"
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
	}
	return progs
}

// TestProgramsExactOnUnitBlocks runs every level program through the
// interpreter on 1×1 integer blocks, where every product and sum is exact
// in float64: each must give αAB + βC exactly.
func TestProgramsExactOnUnitBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	for _, np := range allPrograms() {
		p := np.p
		for _, beta := range np.betas {
			a := intRandom(p.m, p.k, rng)
			b := intRandom(p.k, p.n, rng)
			c := intRandom(p.m, p.n, rng)
			want := c.Clone()
			alpha := 3.0
			matrix.Lin(want, matrix.Term{G: beta, Dst: true})
			blas.NaiveKernel{}.MulAdd(blas.NoTrans, blas.NoTrans, p.m, p.n, p.k, alpha,
				a.Data, a.Stride, b.Data, b.Stride, want.Data, want.Stride)
			e := &engine{policy: policy{crit: Never{}}, kern: blas.NaiveKernel{}}
			e.exec(p, c, matrix.ViewOf(a), matrix.ViewOf(b), alpha, beta, 0)
			if !c.Equal(want) {
				t.Fatalf("%s β=%g: got %v, want %v", np.name, beta, c.Data, want.Data)
			}
		}
	}
}
