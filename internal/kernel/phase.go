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

// callAcct is one band's attribution of a call of the packed nest: its
// sweeps, its packing and its extra destinations' write-out. Packing is
// charged by the operand it forms, whoever called: a single
// unit-coefficient term is a plain copy (kernel.pack_a / kernel.pack_b: no
// FLOPs, 16 bytes per word, one read and one write), a combination of
// terms is kernel.fused_pack ((terms−1) adds per word and (terms+1)·8
// bytes: every term read once, the word written).
type callAcct struct {
	sweepAcct
	packANS, packBNS, fusedNS       int64
	copiedA, copiedB                int64
	fusedFlops, fusedBytes          int64
	writeNS, writeFlops, writeBytes int64
}

// pack folds ns nanoseconds spent packing words words of op, an Ã operand
// when a is set.
func (c *callAcct) pack(op *Operand, a bool, words, ns int64) {
	switch {
	case len(op.Terms) > 1 || op.Terms[0].Coeff != 1:
		t := int64(len(op.Terms))
		c.fusedNS += ns
		c.fusedFlops += (t - 1) * words
		c.fusedBytes += (t + 1) * 8 * words
	case a:
		c.packANS += ns
		c.copiedA += words
	default:
		c.packBNS += ns
		c.copiedB += words
	}
}

// macro folds one sweep over an mb×nb×kb block with nd destinations.
// The first destination's update is the sweep's own; each extra one
// costs one multiply-add per product element per sweep and one C read and
// write (16 bytes) per element, carved out into kernel.fused_writeout
// with a time share apportioned by FLOPs against the sweep's (so
// kernel.micro stays comparable across destination counts).
func (c *callAcct) macro(mi *microImpl, ns int64, mb, nb, kb int, ft, et int64, nd int) {
	if nd > 1 {
		e := int64(nd - 1)
		total := 2 * int64(mb) * int64(nb) * int64(kb)
		wFlops := e * 2 * int64(mb) * int64(nb)
		wBytes := e * 16 * int64(mb) * int64(nb)
		wNS := ns * wFlops / (total + wFlops)
		c.writeFlops += wFlops
		c.writeBytes += wBytes
		c.writeNS += wNS
		ns -= wNS
	}
	c.sweepAcct.macro(mi, ns, mb, nb, kb, ft, et)
}

// flush records the band's totals; a packing phase it did no work in is
// left out.
func (c *callAcct) flush(p *phase.Profiler) {
	if c.copiedA > 0 {
		p.Add(phase.KernelPackA, c.packANS, 0, 16*c.copiedA)
	}
	if c.copiedB > 0 {
		p.Add(phase.KernelPackB, c.packBNS, 0, 16*c.copiedB)
	}
	if c.fusedBytes > 0 {
		p.Add(phase.KernelFusedPack, c.fusedNS, c.fusedFlops, c.fusedBytes)
	}
	c.sweepAcct.flush(p)
	if c.writeFlops > 0 || c.writeNS > 0 {
		p.Add(phase.KernelFusedWriteout, c.writeNS, c.writeFlops, c.writeBytes)
	}
}
