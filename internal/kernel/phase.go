package kernel

import "repro/internal/phase"

// sweepAcct accumulates the macro-kernel sweeps of one call locally so the
// profiler sees a single Add per phase per call, not one per cache block.
//
// A sweep is timed as a whole (timing each register tile would perturb the
// very loop being measured) and its time is split between the micro and
// fringe phases by tile count: every tile, full or ragged, runs the same
// register tile over zero-padded panels and so costs the same. FLOPs stay
// the valid ones, so the two phases' FLOPs sum to the sweep's 2·mb·nb·kb.
type sweepAcct struct {
	microNS, fringeNS       int64
	microFlops, fringeFlops int64
	microBytes, fringeBytes int64
}

// macro folds one sweep: mb×nb×kb logical block, ft full tiles and et edge
// tiles, swept in ns nanoseconds.
func (a *sweepAcct) macro(mi *microImpl, ns int64, mb, nb, kb int, ft, et int64) {
	total := 2 * int64(mb) * int64(nb) * int64(kb)
	full := ft * 2 * int64(mi.mr) * int64(mi.nr) * int64(kb)
	// Per-tile traffic: both panels are zero-padded to mr/nr, so an edge
	// tile streams the same mr·kb + nr·kb packed words as a full one; C is
	// read and written once per tile (bounded by mr·nr each way).
	tileBytes := 8 * (int64(mi.mr)*int64(kb) + int64(mi.nr)*int64(kb) + 2*int64(mi.mr)*int64(mi.nr))
	a.microFlops += full
	a.fringeFlops += total - full
	a.microBytes += ft * tileBytes
	a.fringeBytes += et * tileBytes
	mNS := ns
	if et > 0 {
		mNS = ns * ft / (ft + et)
	}
	a.microNS += mNS
	a.fringeNS += ns - mNS
}

// flush records the sweep totals.
func (a *sweepAcct) flush(p *phase.Profiler) {
	p.Add(phase.KernelMicro, a.microNS, a.microFlops, a.microBytes)
	if a.fringeFlops > 0 || a.fringeNS > 0 {
		p.Add(phase.KernelFringe, a.fringeNS, a.fringeFlops, a.fringeBytes)
	}
}

// phaseAcct is one MulAdd's attribution: the packing phases plus its sweeps.
type phaseAcct struct {
	sweepAcct
	packANS, packBNS int64
}

// flush records the call's totals. Packing performs no FLOPs; its traffic
// is one read plus one write per packed word (16 bytes).
func (a *phaseAcct) flush(p *phase.Profiler, packedA, packedB int64) {
	p.Add(phase.KernelPackA, a.packANS, 0, packedA*16)
	p.Add(phase.KernelPackB, a.packBNS, 0, packedB*16)
	a.sweepAcct.flush(p)
}
