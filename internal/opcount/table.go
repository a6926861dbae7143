package opcount

// Analytic per-phase FLOP counts for the table-driven recursion
// (internal/strassen's generalization of the schedules to arbitrary
// ⟨M, K, N⟩ coefficient tables). The counts mirror the generic executor
// pass for pass — the compiled table program's operand passes
// (strassen's program.operand) and the destination accumulation
// loop — under the same validity window as Strassen1Counts: β = 0,
// dimensions grid-divisible for all d levels, fusion off.

import "repro/internal/algo"

// operandUnitOps is the per-element FLOP cost of materializing one table
// column's operand combination, mirroring strassen's program.operand pass
// selection exactly: a single +1 term is a free block view; two leading
// terms forming a +1/+1, +1/−1 or −1/+1 pair start with one add/sub pass;
// otherwise the first term is a scale-copy (free when its coefficient is
// 1); every further ±1 term is one accumulate pass and every general
// coefficient a two-op axpy pass.
func operandUnitOps(terms []algo.Term) int64 {
	if len(terms) == 1 && terms[0].Coeff == 1 {
		return 0
	}
	pm := func(c float64) bool { return c == 1 || c == -1 }
	var ops int64
	i := 1
	switch {
	case len(terms) >= 2 && pm(terms[0].Coeff) && pm(terms[1].Coeff) &&
		!(terms[0].Coeff == -1 && terms[1].Coeff == -1):
		ops, i = 1, 2
	default:
		if terms[0].Coeff != 1 {
			ops = 1
		}
	}
	for ; i < len(terms); i++ {
		if pm(terms[i].Coeff) {
			ops++
		} else {
			ops += 2
		}
	}
	return ops
}

// destUnitOps is the per-element cost of accumulating a product into one
// destination: one op for a ±1 coefficient (AddAssign/SubAssign), two for
// a general coefficient (axpy).
func destUnitOps(terms []algo.Term) int64 {
	var ops int64
	for _, tm := range terms {
		if tm.Coeff == 1 || tm.Coeff == -1 {
			ops++
		} else {
			ops += 2
		}
	}
	return ops
}

// TableCounts returns the exact per-phase FLOPs of d levels of the
// table-driven recursion with table t on an (m, k, n) problem whose
// dimensions stay grid-divisible for d splits, with full 2mkn-cost leaves
// below, β = 0 and fusion off. AddSub covers the operand-formation passes
// on A- and B-shaped blocks; Quadrant covers the per-product destination
// accumulations (the β = 0 pre-scale is a pure store and counts no
// FLOPs). The phase counters of a real call must match these totals
// exactly; TestTablePhaseCountersMatchAnalytic pins it per table.
func TableCounts(t *algo.Table, d, m, k, n int) PhaseCounts {
	if d <= 0 {
		return PhaseCounts{Mul: 2 * int64(m) * int64(k) * int64(n)}
	}
	mq, kq, nq := m/t.M, k/t.K, n/t.N
	var addsub, quad int64
	for r := 0; r < t.R; r++ {
		addsub += operandUnitOps(t.ATerms(r))*int64(mq)*int64(kq) +
			operandUnitOps(t.BTerms(r))*int64(kq)*int64(nq)
		quad += destUnitOps(t.CTerms(r)) * int64(mq) * int64(nq)
	}
	sub := TableCounts(t, d-1, mq, kq, nq)
	r := int64(t.R)
	return PhaseCounts{
		Mul:      r * sub.Mul,
		AddSub:   addsub + r*sub.AddSub,
		Quadrant: quad + r*sub.Quadrant,
	}
}
