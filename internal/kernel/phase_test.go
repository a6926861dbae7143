package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/phase"
	"repro/internal/sched"
)

// TestPackAttribution: packing is charged by the operand it forms,
// whoever calls. A plain MulAdd packs single unit-coefficient terms, all
// kernel.pack_a / kernel.pack_b at 16 bytes per word and no FLOPs; a
// fused call whose operands have two terms packs combinations, all
// kernel.fused_pack at (terms+1)·8 bytes and terms−1 adds per word. The
// bytes equal the kernel's packed-word counters exactly, sequential and
// threaded alike.
func TestPackAttribution(t *testing.T) {
	if !phase.Enabled {
		t.Skip("phase accounting compiled out (-tags phaseoff)")
	}
	rt := sched.New(2, 11)
	defer rt.Close()
	rng := rand.New(rand.NewSource(81))
	m, n, kk := 40, 36, 28
	a, a2 := fill(rng, m, kk, m), fill(rng, m, kk, m)
	b, b2 := fill(rng, kk, n, kk), fill(rng, kk, n, kk)
	c := make([]float64, m*n)
	two := func(x, y []float64, rows, cols, ld int) Operand {
		return Operand{Ld: ld, Terms: []Term{{Data: x, Coeff: 1, Rows: rows, Cols: cols}, {Data: y, Coeff: -1, Rows: rows, Cols: cols}}}
	}
	aOp, bOp := two(a, a2, m, kk, m), two(b, b2, kk, n, kk)
	dests := []Dest{{Data: c, Ld: m, Coeff: 1, Rows: m, Cols: n}}
	for _, sub := range []sched.Submitter{nil, rt} {
		for _, plain := range []bool{true, false} {
			what := fmt.Sprintf("plain=%v threaded=%v", plain, sub != nil)
			k := &Packed{MC: 16, KC: 12, NC: 16}
			prof := &phase.Profiler{}
			prev := phase.SetActive(prof)
			if plain {
				k.MulAddTasks(sub, blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, c, m)
			} else {
				k.FusedMulAddTasks(sub, m, n, kk, 1, 1, []Product{{A: aOp, B: bOp, Dests: dests}})
			}
			phase.SetActive(prev)
			snap := prof.Snapshot()
			_, pa, pb := k.Counters()
			if pa == 0 || pb == 0 {
				t.Fatalf("%s: no words packed", what)
			}
			pA, pB, fp := snap[phase.KernelPackA], snap[phase.KernelPackB], snap[phase.KernelFusedPack]
			if plain {
				if pA.Bytes != 16*pa || pB.Bytes != 16*pb || pA.Flops != 0 || pB.Flops != 0 || fp.Count != 0 {
					t.Errorf("%s: pack_a %d B, pack_b %d B, fused_pack %+v; want %d B, %d B and nothing", what, pA.Bytes, pB.Bytes, fp, 16*pa, 16*pb)
				}
				continue
			}
			if fp.Bytes != 24*(pa+pb) || fp.Flops != pa+pb || pA.Count != 0 || pB.Count != 0 {
				t.Errorf("%s: fused_pack %d B %d FLOPs, pack_a %+v, pack_b %+v; want %d B, %d FLOPs and no plain packing",
					what, fp.Bytes, fp.Flops, pA, pB, 24*(pa+pb), pa+pb)
			}
		}
	}
}
