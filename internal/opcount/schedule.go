package opcount

// This file extends the paper's abstract operation-count model to the
// *implemented* schedules, so the phase-attribution counters (package
// internal/phase) can be cross-checked exactly against analytic counts.
//
// Two conventions separate the implemented counts from equations (3)–(5):
//
//  1. Store folding. The model's M(m,k,n) = 2mkn − mn folds the first
//     k-iteration's add into a store. A real DGEMM leaf computing
//     C ← C + A·B performs the full 2mkn multiply-adds (the kernel phases
//     kernel.micro/kernel.fringe count 2mkn), so each base-case leaf
//     measures mn more FLOPs than M.
//
//  2. In-place scheduling. STRASSEN1 realizes Winograd's 7 C-sized
//     combinations with 9 elementwise passes over C-shaped blocks (one of
//     them C21 ← C22 − C11 − C21, costing 2 ops/element) because the C
//     quadrants double as product buffers — a total of 9·mn/4 operations
//     where the abstract schedule counts 7·mn/4. The A- and B-side counts
//     (4 passes each) match the abstract schedule exactly.
//
// PhaseCounts returns the implemented totals; callers wanting the paper's
// figure use W/WSquare and the documented deltas above.

// PhaseCounts is the analytic per-phase FLOP decomposition of one DGEFMM
// call under the STRASSEN1 (β = 0) schedule.
type PhaseCounts struct {
	// Mul is the leaf multiply work: Σ 2·m·k·n over base-case leaves
	// (measured by kernel.micro + kernel.fringe).
	Mul int64
	// AddSub is the stage (1)/(2) S/T sum formation on A- and B-shaped
	// blocks (phase strassen.addsub).
	AddSub int64
	// Quadrant is the stage (4) combination work on C-shaped blocks
	// (phase strassen.quadrant).
	Quadrant int64
}

// Total is the implemented schedule's full FLOP count.
func (c PhaseCounts) Total() int64 { return c.Mul + c.AddSub + c.Quadrant }

// Strassen1Counts returns the exact per-phase FLOPs of d recursion levels
// of the implemented STRASSEN1 schedule on an (m, k, n) problem whose
// dimensions stay even for d halvings, with full 2mkn-cost leaves below.
// Per level: 4 A-shaped passes (mk/4 each), 4 B-shaped passes (kn/4 each),
// and 9 C-shaped passes (seven adds, C21 ← C22 − C11 − C21 at 2 ops and
// the copy C11 ← P1, which moves words but performs no arithmetic: 9·mn/4).
func Strassen1Counts(d, m, k, n int) PhaseCounts {
	if d <= 0 {
		return PhaseCounts{Mul: 2 * int64(m) * int64(k) * int64(n)}
	}
	mk := int64(m) * int64(k) / 4
	kn := int64(k) * int64(n) / 4
	mn := int64(m) * int64(n) / 4
	sub := Strassen1Counts(d-1, m/2, k/2, n/2)
	return PhaseCounts{
		Mul:      7 * sub.Mul,
		AddSub:   4*mk + 4*kn + 7*sub.AddSub,
		Quadrant: 9*mn + 7*sub.Quadrant,
	}
}

// Strassen1Delta returns the difference between the implemented schedule's
// total and the paper's W (equation (3)) for the same problem: the
// 7^d·(m0·n0) store-folding term plus the extra 2·(7^d − 4^d)·(m·n/4)/3
// quadrant passes accumulated over the levels. Strassen1Counts.Total() ==
// W(d, m0, k0, n0) + Strassen1Delta(d, m, n) always holds; tests pin it.
func Strassen1Delta(d, m, n int) int64 {
	m0 := int64(m >> d)
	n0 := int64(n >> d)
	// Per level ℓ (0-based), the implemented schedule runs 2 extra C passes
	// of size (m·n/4)/4^ℓ, fanned out over 7^ℓ nodes.
	var extra int64
	mn4 := int64(m) * int64(n) / 4
	for l := 0; l < d; l++ {
		extra += pow(7, l) * 2 * (mn4 / pow(4, l))
	}
	return pow(7, d)*m0*n0 + extra
}
