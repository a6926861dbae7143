// Package kernel provides the packed, cache-blocked, register-tiled DGEMM
// micro-kernel that serves as DGEFMM's base-case multiplier below the
// Strassen cutoff. The paper's speedups are multiplicative over whatever
// DGEMM runs at the leaves (its machines used vendor BLAS); this package is
// the reproduction's equivalent of that tuned substrate, in the style of
// Huang et al., "Implementing Strassen's Algorithm with BLIS"
// (arXiv:1605.01078): a GotoBLAS loop nest (NC/KC/MC blocking), operands
// repacked into contiguous zero-padded panels, and an unrolled MR×NR
// register kernel that also serves the ragged edge tiles over that
// padding, covering alpha and all four transpose combinations.
//
// There is one loop nest (tasks.go), and it runs products: a product's
// operands are linear combinations of strided terms and it updates one or
// more destinations (fused.go). A plain multiply (MulAdd) is the product
// of one coefficient-1 term per operand into one coefficient-1
// destination; a fused Strassen level (FusedMulAddTasks) is a list of
// products whose packing forms the level's operand sums and whose
// write-out updates every C block a product feeds, after Huang et al.'s
// ABC Strassen, which generalizes BLIS's packing routine the same way.
//
// The register tile is dispatched at runtime (see dispatch.go): hosts with
// AVX2+FMA (amd64) or AdvSIMD (arm64) run a hand-written 8×4 assembly tile
// — Goto & van de Geijn's point that the micro-kernel is where the vector
// ISA earns its multiple — while every other host, and every Compat
// instance, runs the portable scalar 4×4 tile. The DGEFMM_KERNEL
// environment variable forces either path.
//
// Packing buffers are drawn from an internal/memtrack arena, so workspace
// stays measurable and bounded the same way the Strassen temporaries are
// (Boyer et al., arXiv:0707.2347 motivate keeping scratch inside the
// accounted budget): LeafWorkspace gives the closed-form words per
// sequential call — the Ã panel and, as the nest packs B̃ a sliver at a
// time, one KC×NR sliver when the rows fit one MC block or the KC×NC panel
// the later blocks read again; CallWorkspace gives a threaded call's, which
// adds a second Ã buffer and whose column bands each keep a sliver or
// share the panel — and tests assert the measured arena peak equals it. The arena's free list makes the steady state
// allocation-free, and because every MulAdd draws its own buffers, a
// single *Packed is safe for concurrent use — unlike blas.BlockedKernel,
// whose packing buffers are per-instance state.
package kernel

import (
	"sync"
	"sync/atomic"

	"repro/internal/blas"
	"repro/internal/memtrack"
)

// Compat block sizes: blas.BlockedKernel's defaults. Rounding of a C
// element depends only on where the k dimension is split into KC blocks
// (alpha is applied per block), not on MR/NR/MC/NC, so pinning KC to the
// legacy kernel's value — and the micro-kernel to the scalar tile, since
// FMA contraction changes rounding — makes results bit-for-bit identical
// to it.
const (
	compatMC = 128
	compatKC = 256
	compatNC = 1024
)

// Packed is the packed cache-blocked kernel. The zero value is ready to
// use: block sizes default to the cache-derived DefaultBlocks, the
// micro-kernel to the best tile the host supports (ModeAuto), and the
// packing arena is created on first use. All methods are safe for
// concurrent use.
type Packed struct {
	// MC×KC is the packed Ã panel (sized for L2); KC×NC is the packed B̃
	// panel (sized against L3). Zero values select DefaultBlocks.
	MC, KC, NC int
	// Mode selects the micro-kernel dispatch policy; see Mode. The zero
	// value auto-dispatches.
	Mode Mode
	// Compat pins the blocking to blas.BlockedKernel's defaults and the
	// micro-kernel to the scalar tile, making results bit-for-bit
	// identical to the legacy blocked leaf (at some speed cost). Off by
	// default: the tuned blocking changes the KC split and the SIMD tile
	// fuses multiply-adds, both changing rounding while staying within the
	// same error bounds.
	Compat bool

	mu    sync.Mutex
	arena *memtrack.Tracker

	products    atomic.Int64
	packAWords  atomic.Int64
	packBWords  atomic.Int64
	simdTiles   atomic.Int64
	scalarTiles atomic.Int64
}

// Name implements blas.Kernel. A Packed whose inner loop dispatches to a
// SIMD tile reports "simd" (its calibrated cutoff parameters differ from
// the scalar kernel's — a faster leaf raises the crossover); the scalar
// paths report "packed".
func (k *Packed) Name() string {
	if k.impl().isa != "scalar" {
		return "simd"
	}
	return "packed"
}

// Clone implements blas.Cloner. The clone shares the receiver's tuning but
// owns a fresh arena, so per-worker clones (internal/batch) get per-worker
// workspace accounting.
func (k *Packed) Clone() blas.Kernel {
	return &Packed{MC: k.MC, KC: k.KC, NC: k.NC, Mode: k.Mode, Compat: k.Compat}
}

// Arena returns the packing-buffer arena, creating it on first use.
func (k *Packed) Arena() *memtrack.Tracker {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.arena == nil {
		k.arena = memtrack.New()
	}
	return k.arena
}

// SetArena installs an externally owned arena (internal/batch points worker
// kernels at observed arenas). Must be called before the first MulAdd.
func (k *Packed) SetArena(t *memtrack.Tracker) {
	k.mu.Lock()
	k.arena = t
	k.mu.Unlock()
}

// Counters reports cumulative work counters: the products the loop nest
// has run — one per MulAdd or FusedMulAdd call, one per live product of a
// FusedMulAddTasks call — and the words packed into Ã and B̃ panels.
// internal/obs snapshots them per kernel.
func (k *Packed) Counters() (products, packAWords, packBWords int64) {
	return k.products.Load(), k.packAWords.Load(), k.packBWords.Load()
}

// TileCounters reports how many register-tile invocations ran on the SIMD
// micro-kernel versus the scalar one. Every tile of a call, ragged fringe
// tiles included, runs the dispatched tile, so on a SIMD host any scalar
// count comes from scalar-pinned instances (Compat, ModeScalar) or a
// mis-dispatch. internal/obs snapshots these so a silently mis-dispatched
// host shows up as scalar-heavy traffic.
func (k *Packed) TileCounters() (simd, scalar int64) {
	return k.simdTiles.Load(), k.scalarTiles.Load()
}

// countTiles credits n register-tile invocations to the counter of the
// tile that ran them.
func (k *Packed) countTiles(mi *microImpl, n int64) {
	if mi.isa != "scalar" {
		k.simdTiles.Add(n)
	} else {
		k.scalarTiles.Add(n)
	}
}

// blocks resolves the effective (MC, KC, NC) for the active micro-kernel.
func (k *Packed) blocks(mi *microImpl) (mc, kc, nc int) {
	if k.Compat {
		return compatMC, compatKC, compatNC
	}
	mc, kc, nc = k.MC, k.KC, k.NC
	dmc, dkc, dnc := DefaultBlocks()
	if mc <= 0 {
		mc = dmc
	}
	if kc <= 0 {
		kc = dkc
	}
	if nc <= 0 {
		nc = dnc
	}
	mc = roundUpMul(mc, mi.mr)
	nc = roundUpMul(nc, mi.nr)
	return mc, kc, nc
}

// effBlocks clamps the blocking to the problem so small leaves draw small
// buffers (a τ-sized Strassen leaf must not pay for an NC-wide panel).
func (k *Packed) effBlocks(mi *microImpl, m, n, kk int) (mcE, kcE, ncE int) {
	mc, kc, nc := k.blocks(mi)
	mcE = roundUpMul(m, mi.mr)
	if mcE > mc {
		mcE = mc
	}
	kcE = kk
	if kcE > kc {
		kcE = kc
	}
	ncE = roundUpMul(n, mi.nr)
	if ncE > nc {
		ncE = nc
	}
	return mcE, kcE, ncE
}

// LeafWorkspace returns the exact packing workspace, in float64 words, one
// MulAdd of the given logical shape draws from the arena: the Ã panel at
// the clamped blocking (which follows the active tile's panel shapes — an
// 8-row SIMD Ã panel rounds m up to 8, not 4) plus the B̃ the sequential
// nest keeps (bCols): one KC×NR sliver when the rows fit one MC block,
// the KC×NC panel otherwise. Every sequential call draws exactly this,
// plain or fused; a threaded call draws CallWorkspace, which packs Ã into
// two buffers by turns and keeps a sliver per column band.
func (k *Packed) LeafWorkspace(m, n, kk int) int64 {
	return k.CallWorkspace(0, 1, m, n, kk)
}

// MulAdd implements blas.Kernel: C ← C + alpha·op(A)·op(B) on column-major
// storage, op(A) m×k, op(B) k×n. The caller (blas.DgemmKernel) has already
// validated arguments and applied beta. It runs the packed loop nest
// (tasks.go) on the calling goroutine as one product: each operand one
// coefficient-1 term at its full extent, C its one coefficient-1
// destination.
func (k *Packed) MulAdd(transA, transB blas.Transpose, m, n, kk int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	k.MulAddTasks(nil, transA, transB, m, n, kk, alpha, a, lda, b, ldb, c, ldc)
}

// macroKernel sweeps the packed panels with the register micro-kernel:
// for each nr-wide B̃ micro-panel (kept hot in L1), stream the Ã panel's
// mr-row micro-panels from L2 through the register tile. Full tiles run
// the impl's full tile; ragged boundary tiles run its edge handler, which
// computes the same tile over the zero-padded panels and writes out only
// the valid elements. Returns the full and edge tile counts.
func macroKernel(mi *microImpl, apack, bpack []float64, c []float64, ldc int, ic, jc, mb, nb, kb int, alpha float64) (fullTiles, edgeTiles int64) {
	mr, nr := mi.mr, mi.nr
	for jp := 0; jp < nb; jp += nr {
		cols := nb - jp
		if cols > nr {
			cols = nr
		}
		bp := bpack[(jp/nr)*(nr*kb):]
		ctile := c[(jc+jp)*ldc+ic:]
		for ip := 0; ip < mb; ip += mr {
			rows := mb - ip
			if rows > mr {
				rows = mr
			}
			ap := apack[(ip/mr)*(mr*kb):]
			if rows == mr && cols == nr {
				mi.full(ap, bp, ctile[ip:], ldc, kb, alpha)
				fullTiles++
			} else {
				mi.edge(ap, bp, ctile[ip:], ldc, rows, cols, kb, alpha)
				edgeTiles++
			}
		}
	}
	return fullTiles, edgeTiles
}

func roundUpMul(v, unit int) int {
	return (v + unit - 1) / unit * unit
}
