package kernel

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/blas"
)

// Runtime micro-kernel dispatch. The packed NC/KC/MC loop nest is ISA
// independent; only the innermost register tile changes between machines.
// At startup the package probes the CPU (CPUID on amd64, HWCAP on arm64 —
// see cpu_*.go; no cgo, no external deps) and, when the host has the
// required vector extension, swaps the hand-written SIMD micro-kernel in
// for the portable scalar tile. Everything above the tile — packing
// layout, blocking, workspace accounting — adapts through the microImpl
// descriptor, so the scalar path remains the universal fallback and the
// bit-compat path (Compat) is always pinned to the scalar tile.
//
// The selection is overridable per process with the DGEFMM_KERNEL
// environment variable, so tests and CI can force any path:
//
//	DGEFMM_KERNEL=simd     force the SIMD tile (scalar fallback when the
//	                       host lacks the extension — ISA() reports which)
//	DGEFMM_KERNEL=packed   pin the scalar packed kernel
//	DGEFMM_KERNEL=blocked  Default() returns the legacy blocked kernel
//
// "packed" and "blocked" also pin ModeAuto instances to the scalar tile,
// so a DGEFMM_KERNEL=packed test run exercises the fallback everywhere,
// not just through Default().

// microImpl describes one register micro-kernel: its tile shape, the ISA
// it needs, and the entry points the macro kernel calls. full computes a
// complete mr×nr tile; edge handles ragged boundary tiles by running the
// same tile over the zero-padded panels (the scalar tile's own edge scatter,
// simdEdge for the SIMD tiles).
type microImpl struct {
	// mr, nr are the register-tile dimensions. The Ã packing layout is
	// mr-row micro-panels and B̃ is nr-column micro-panels, so the packers
	// and workspace bounds follow the active tile shape.
	mr, nr int
	// isa names the instruction set ("avx2+fma", "neon", "scalar").
	isa string
	// full computes C[0:mr, 0:nr] += alpha·Ã·B̃ over a kb-deep micro-panel
	// pair. c points at the tile's top-left element (column-major, leading
	// dimension ldc).
	full func(ap, bp, c []float64, ldc, kb int, alpha float64)
	// edge computes the ragged rows×cols prefix of the tile.
	edge func(ap, bp, c []float64, ldc, rows, cols, kb int, alpha float64)
	// multi, when non-nil, computes tiles full mr×nr tiles down one column
	// of register tiles (consecutive Ã micro-panels against one B̃
	// micro-panel) and scatters each into ds[:nd] (nd ≤ 4) with
	// independent scalars, C_d += alpha_d·acc in order — the fused
	// write-out's native path, rounding like the tile's own scatter at each
	// alpha. Nil means the fused sweep captures every tile in a buffer and
	// scatters in Go instead.
	multi func(ap, bp []float64, kb int, ds [4]tileDest, nd, tiles int)
	// packAN and packBN, when non-nil, form micro-panels of a
	// non-transposed fused operand of 1–4 terms (packTerms) at packing
	// speed, bit-identical to the Go loops they replace: a row past a
	// term's count reads as +0.0 through the same arithmetic. packAN forms
	// columns [0, cols) of the ⌈max h/mr⌉ mr-row panels; packBN forms rows
	// [0, p.rows) of panels nr-column panels from the block's column at
	// storage offset off (a plan is set up once per block, and its panels
	// are packed a few at a time). Panels are depth words deep, and the
	// caller keeps the formed rows inside the block. Nil means
	// packAFused/packBFused run the Go loops.
	packAN func(dst []float64, ts packTerms, ld, cols, depth int)
	packBN func(dst []float64, p bnPlan, off, ld, panels, depth int)
}

// scalarImpl is the portable tile: the unrolled 4×4 register kernel that
// was PR 4's pure-Go ceiling. It is complete (full == edge specialisation)
// and runs on every GOARCH.
var scalarImpl = microImpl{
	mr:   MR,
	nr:   NR,
	isa:  "scalar",
	full: scalarFull,
	edge: microTile,
}

func scalarFull(ap, bp, c []float64, ldc, kb int, alpha float64) {
	microTile(ap, bp, c, ldc, MR, NR, kb, alpha)
}

// simdImpl is the host's SIMD tile, built by the platform file
// (micro_amd64.go, micro_arm64.go, micro_noasm.go); nil means the scalar
// tile is the only choice. It is a package-variable initialization — not
// an init() func — so it is ready before this package's init registers
// kernels with blas (var initialization precedes all init functions).
var simdImpl = newSIMDImpl()

// Mode selects a Packed instance's micro-kernel dispatch policy.
type Mode int

const (
	// ModeAuto (the zero value) uses the SIMD tile when the host supports
	// one and DGEFMM_KERNEL does not pin the scalar path.
	ModeAuto Mode = iota
	// ModeScalar pins the portable scalar tile regardless of the host.
	ModeScalar
	// ModeSIMD requests the SIMD tile even under DGEFMM_KERNEL=packed;
	// on hosts without a SIMD tile it still falls back to scalar (check
	// ISA() when the distinction matters).
	ModeSIMD
)

// envKernel returns the cached DGEFMM_KERNEL override ("" when unset).
// Unknown values are reported once on stderr and ignored.
var envKernel = sync.OnceValue(func() string {
	return normalizeEnvKernel(os.Getenv("DGEFMM_KERNEL"))
})

// normalizeEnvKernel validates a DGEFMM_KERNEL value, warning once on
// stderr and ignoring anything unknown. Split from the cached reader so
// tests can drive it directly.
func normalizeEnvKernel(v string) string {
	n := strings.ToLower(strings.TrimSpace(v))
	switch n {
	case "", "auto", "simd", "packed", "blocked":
		return n
	}
	fmt.Fprintf(os.Stderr, "kernel: ignoring unknown DGEFMM_KERNEL=%q (want simd|packed|blocked)\n", v)
	return ""
}

// impl resolves the receiver's active micro-kernel. Compat always pins the
// scalar tile: bit-for-bit legacy results require the legacy operation
// order, and FMA contraction would change rounding.
func (k *Packed) impl() *microImpl { return k.implFor(envKernel()) }

// implFor is impl with the environment override passed explicitly (tests
// exercise every combination without mutating the process environment).
func (k *Packed) implFor(env string) *microImpl {
	if k.Compat || k.Mode == ModeScalar || simdImpl == nil {
		return &scalarImpl
	}
	if k.Mode == ModeAuto {
		switch env {
		case "packed", "blocked":
			return &scalarImpl
		}
	}
	return simdImpl
}

// ISA reports the instruction set the receiver's inner loop dispatches to:
// "avx2+fma", "neon", or "scalar". internal/obs surfaces it in snapshots
// and cmd/benchdiff names it in reports.
func (k *Packed) ISA() string { return k.impl().isa }

// HasSIMD reports whether the host CPU (and OS) support this package's
// SIMD micro-kernel: AVX2+FMA with OS-enabled YMM state on amd64, AdvSIMD
// on arm64.
func HasSIMD() bool { return simdImpl != nil }

// SIMDISA names the host's SIMD micro-kernel ISA, or "scalar" when the
// fallback tile is the only choice.
func SIMDISA() string {
	if simdImpl == nil {
		return "scalar"
	}
	return simdImpl.isa
}

// Shared process-wide instances. Sharing is safe because every MulAdd
// draws private buffers from the mutex-guarded arena.
var (
	// defaultPacked auto-dispatches; it is what Default() returns absent an
	// override and what DGEFMM runs on by default.
	defaultPacked = &Packed{}
	// defaultScalar pins the scalar tile; registered as "packed" so the
	// pre-SIMD kernel stays addressable for ablations and baselines.
	defaultScalar = &Packed{Mode: ModeScalar}
	// defaultSIMD forces the SIMD tile (scalar fallback on non-SIMD hosts).
	defaultSIMD = &Packed{Mode: ModeSIMD}
)

// Default returns the process-default base-case kernel — the kernel
// internal/strassen, internal/fastlevel3 and internal/batch run below the
// cutoff: the auto-dispatching packed kernel, unless DGEFMM_KERNEL
// overrides the choice.
func Default() blas.Kernel { return defaultFor(envKernel()) }

// defaultFor is Default with the environment override passed explicitly.
func defaultFor(env string) blas.Kernel {
	switch env {
	case "simd":
		return defaultSIMD
	case "packed":
		return defaultScalar
	case "blocked":
		if k := blas.KernelByName("blocked"); k != nil {
			return k
		}
	}
	return defaultPacked
}

func init() {
	// Order matters: the last-registered new name leads reports. Register
	// the pinned scalar kernel first ("packed"), then the auto instance —
	// on SIMD hosts it contributes the leading "simd" name; on scalar
	// hosts its name is also "packed" and simply replaces the entry with
	// an equivalently scalar instance.
	blas.RegisterKernel(defaultScalar)
	blas.RegisterKernel(defaultPacked)
}
