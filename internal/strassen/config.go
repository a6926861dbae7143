// Package strassen implements DGEFMM, the paper's portable replacement for
// the Level 3 BLAS DGEMM based on the Winograd variant of Strassen's
// algorithm (7 recursive multiplies, 15 block adds per level).
//
// The implementation follows Section 3 of the paper:
//
//   - Interface: identical to DGEMM — C ← α·op(A)·op(B) + β·C, column-major
//     storage with leading dimensions (Section 3.1).
//   - Memory: two computation schedules. STRASSEN1 runs when β = 0 and uses
//     the output C as scratch, bounding extra workspace by
//     (m·max(k,n) + kn)/3. STRASSEN2 handles general β through recursive
//     multiply-accumulate with three temporaries bounded by (mk+kn+mn)/3
//     (Section 3.2, Figure 1, Table 1).
//   - Odd dimensions: dynamic peeling with DGER/DGEMV fixups (Section 3.3),
//     plus dynamic and static padding as ablation alternatives.
//   - Cutoff: pluggable criteria, defaulting to the paper's hybrid
//     condition (15) with empirically calibrated parameters (Section 3.4).
package strassen

import (
	"strconv"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/memtrack"
	"repro/internal/sched"
)

// Schedule selects the Winograd computation schedule.
type Schedule int

const (
	// ScheduleAuto picks STRASSEN1 when beta == 0 and STRASSEN2 otherwise —
	// the paper's DGEFMM configuration (Table 1, last row).
	ScheduleAuto Schedule = iota
	// ScheduleStrassen1 forces the β=0 schedule; it is an error to request
	// it with β ≠ 0.
	ScheduleStrassen1
	// ScheduleStrassen2 forces the general multiply-accumulate schedule.
	ScheduleStrassen2
	// ScheduleOriginal uses Strassen's original 1969 construction
	// (7 multiplies, 18 adds) instead of Winograd's variant; provided for
	// the paper's Winograd-vs-original comparison (equations (4) and (5)).
	ScheduleOriginal
)

// String returns the schedule's report name.
func (s Schedule) String() string {
	switch s {
	case ScheduleAuto:
		return "auto"
	case ScheduleStrassen1:
		return "strassen1"
	case ScheduleStrassen2:
		return "strassen2"
	case ScheduleOriginal:
		return "original"
	}
	return "unknown"
}

// OddStrategy selects how odd dimensions are made even at each recursion.
type OddStrategy int

const (
	// OddPeel is dynamic peeling (the paper's choice): strip the extra
	// row/column and repair with rank-one and matrix-vector fixups. At a
	// fused level it pads virtually instead: the level runs on blocks
	// rounded up to the grid, the kernel's packers read the missing rows
	// and columns as zero and its write-out never stores them, so the
	// padding costs no workspace and needs no fixups. Materialized levels,
	// where padding would cost workspace, still peel.
	OddPeel OddStrategy = iota
	// OddPadDynamic pads each odd dimension with one zero row/column at
	// every recursion level (the approach of Douglas et al.).
	OddPadDynamic
	// OddPadStatic pads once, before any recursion, to a multiple of 2^d
	// where d is the anticipated recursion depth (Strassen's original
	// suggestion).
	OddPadStatic
	// OddPeelFirst is the alternate peeling of the paper's future work:
	// strip the *first* row/column instead of the last.
	OddPeelFirst
)

// String returns the strategy's report name.
func (o OddStrategy) String() string {
	switch o {
	case OddPeel:
		return "peel"
	case OddPadDynamic:
		return "pad-dynamic"
	case OddPadStatic:
		return "pad-static"
	case OddPeelFirst:
		return "peel-first"
	}
	return "unknown"
}

// Config selects the kernel, cutoff criterion and algorithm variants for a
// DGEFMM computation. The zero value is NOT usable; call DefaultConfig.
type Config struct {
	// Kernel is the DGEMM engine used below the cutoff and in fixups.
	// Nil selects the packed cache-blocked kernel (internal/kernel).
	Kernel blas.Kernel
	// Criterion is the recursion cutoff test. Nil selects the hybrid
	// condition (15) with DefaultParams for the kernel.
	Criterion Criterion
	// Schedule selects the Winograd computation schedule (default auto).
	Schedule Schedule
	// Odd selects the odd-dimension strategy (default dynamic peeling).
	Odd OddStrategy
	// MaxDepth, if positive, bounds the recursion depth regardless of the
	// criterion. Zero means no explicit bound.
	MaxDepth int
	// Fused selects whether the last recursion levels may run through the
	// kernel's fused packing/write-out hooks (see FusedMode). The zero
	// value auto-detects; DGEFMM_FUSED overrides auto per process.
	Fused FusedMode
	// Algo names the fast-algorithm coefficient table driving the
	// recursion (internal/algo): "" or "default" for the paper's ⟨2,2,2⟩
	// Winograd variant run by the paper's STRASSEN1/STRASSEN2 schedules, "auto"
	// for per-shape selection by operand aspect, or a registered table
	// name ("classic", "323", "333", "424", …). When empty the DGEFMM_ALGO
	// environment variable is consulted (PR 5 precedence: Config beats
	// environment beats default). Non-default tables run their compiled
	// level programs with generalized dynamic peeling; the Schedule and
	// Odd knobs apply only to the default path.
	Algo string
	// Tracker, if non-nil, accounts all temporary workspace words.
	Tracker *memtrack.Tracker
	// Sched, if non-nil, executes the recursion on this work-stealing task
	// runtime (internal/sched): the top SchedLevels recursion levels expand
	// their products into a dependency DAG and the packed kernel's MC loop
	// threads at the leaves. Multiple Configs may share one runtime — tasks
	// from concurrent calls interleave under a single core budget.
	Sched *sched.Runtime
	// SchedLevels bounds how many top levels expand into task DAGs; 0 picks
	// enough levels that the product fan-out covers the runtime's workers
	// (capped at 3). Ignored when no task runtime is active. Each DAG level
	// runs at most the runtime's worker count of products at once.
	SchedLevels int
	// Tracer, if non-nil, receives one TraceEvent per recursion decision
	// (base-case, schedule level, peel/pad action, fixup). A Tracer that
	// also implements SpanTracer additionally receives timed, parented
	// BeginSpan/EndSpan brackets around every node (see internal/obs for
	// the standard collector). Implementations must be concurrency-safe
	// when Sched is set.
	Tracer Tracer
}

// Params holds empirically calibrated cutoff parameters for one machine
// (here: one DGEMM kernel), mirroring the paper's Tables 2 and 3.
type Params struct {
	// Tau is the square crossover order τ (Table 2).
	Tau int
	// TauM, TauK, TauN are the rectangular parameters (Table 3).
	TauM, TauK, TauN int
}

// Hybrid builds the paper's criterion (15) from the parameters.
func (p Params) Hybrid() Criterion {
	return Hybrid{Tau: p.Tau, TauM: p.TauM, TauK: p.TauK, TauN: p.TauN}
}

// defaultParams holds per-kernel cutoff parameters measured with
// cmd/calibrate on the development host (single-CPU Linux container,
// Go 1.24). They play the role of the paper's Table 2/3 values: reasonable
// defaults that users re-calibrate per machine (the code "allows user
// testing and specification" of the parameters, as the paper's does).
// As the paper notes for its own procedure, "if alternative values of m, k,
// and n are used ... different values for the parameters may be obtained";
// the rectangular curves on this host are flat near the crossover, so these
// are rounded midpoints of repeated calibration runs.
// A practical caution baked into these values: the one-level crossover on
// the naive kernel is near 24–32, but installing so low a τ lets multi-level
// recursion descend into sizes where the O(n²) overheads dominate; the τ
// here is deliberately the "always better beyond this" end of the measured
// crossover band, as the paper chose 199 from its 176–214 range.
// The "simd" row illustrates that caution at its sharpest: the AVX2 tile
// multiplies kernel GFLOPS by ~7, so the O(n²) add/partition overhead of a
// Strassen step — unchanged by the tile — dominates until far larger n.
// Calibration on the development host shows one recursion level only
// breaking even around the top of the measured range (DGEMM/DGEFMM ≈ 0.94
// at n=512), so τ sits at 512 and the rectangular cutoffs at 256.
// The "+fused" rows are consulted when the fused Winograd driver is active
// (auto schedule, hook-capable kernel, fused mode not off) and come from
// cmd/calibrate's -fused sweep (see EXPERIMENTS.md for the curves). On the
// SIMD tile, fusing the add/sub combinations into packing and write-out
// removes most of a Strassen level's O(n²) overhead, which pulls the
// crossover from the materialized schedules' τ=512 down to 448 (sweeps on
// the development host cross between 416 and 480) — the point of the fused
// path. The scalar packed kernel moves the other way (136 vs 88): at ~5
// GFLOPS the products dominate so the materialized adds were nearly free,
// while the fused packers' two-source strided reads repeat per cache
// block; fusion only wins once the re-read panels stay resident.
// The "<kernel>/<algo>" rows are consulted when a non-default coefficient
// table drives the recursion (Config.Algo / DGEFMM_ALGO); they come from
// cmd/calibrate -algo sweeps on the development host (see EXPERIMENTS.md
// for the methodology). The pattern across the rows: a table's crossover
// scales inversely with its per-level speedup M·K·N/R — classic ⟨2,2,2⟩
// (8/7, like Winograd but three more C passes) sits near the kernel's own
// τ, ⟨3,2,3⟩ (18/17) and ⟨4,2,4⟩ (32/28) need larger blocks before their
// thinner savings clear the O(n²) grid overhead, and ⟨3,3,3⟩ (27/26) only
// pays on the biggest shapes in the measured range.
var defaultParams = map[string]Params{
	"simd":           {Tau: 512, TauM: 256, TauK: 256, TauN: 256},
	"simd+fused":     {Tau: 448, TauM: 288, TauK: 288, TauN: 288},
	"simd/classic":   {Tau: 512, TauM: 256, TauK: 256, TauN: 256},
	"simd/323":       {Tau: 576, TauM: 312, TauK: 240, TauN: 312},
	"simd/333":       {Tau: 768, TauM: 384, TauK: 384, TauN: 384},
	"simd/424":       {Tau: 576, TauM: 320, TauK: 224, TauN: 320},
	"packed":         {Tau: 88, TauM: 56, TauK: 68, TauN: 44},
	"packed+fused":   {Tau: 136, TauM: 40, TauK: 84, TauN: 32},
	"packed/classic": {Tau: 96, TauM: 56, TauK: 68, TauN: 44},
	"packed/323":     {Tau: 120, TauM: 66, TauK: 56, TauN: 66},
	"packed/333":     {Tau: 168, TauM: 84, TauK: 96, TauN: 84},
	"packed/424":     {Tau: 128, TauM: 72, TauK: 48, TauN: 72},
	"blocked":        {Tau: 96, TauM: 48, TauK: 64, TauN: 48},
	"vector":         {Tau: 96, TauM: 64, TauK: 96, TauN: 48},
	"naive":          {Tau: 44, TauM: 16, TauK: 24, TauN: 16},
}

// DefaultParams returns the calibrated cutoff parameters for a kernel name,
// falling back to the blocked kernel's parameters for unknown names.
func DefaultParams(kernelName string) Params {
	if p, ok := defaultParams[kernelName]; ok {
		return p
	}
	return defaultParams["blocked"]
}

// SetDefaultParams overrides the default parameters for a kernel name, the
// programmatic equivalent of re-running the paper's calibration experiments
// on a new machine.
func SetDefaultParams(kernelName string, p Params) {
	defaultParams[kernelName] = p
}

// DefaultConfig returns the paper's DGEFMM configuration for the given
// kernel (nil = the packed cache-blocked kernel, the fastest base-case
// multiplier; select "blocked"/"naive"/"vector" explicitly via
// blas.KernelByName for the ablation arms): auto schedule, dynamic peeling,
// hybrid cutoff with the kernel's calibrated parameters.
func DefaultConfig(kern blas.Kernel) *Config {
	if kern == nil {
		kern = kernel.Default()
	}
	cfg := &Config{Kernel: kern}
	cfg.Criterion = cfg.criterion()
	return cfg
}

func (cfg *Config) kernel() blas.Kernel {
	if cfg.Kernel == nil {
		return kernel.Default()
	}
	return cfg.Kernel
}

// criterion resolves the cutoff: an explicit Criterion wins; otherwise the
// kernel's calibrated parameters, preferring the "<name>+fused" row when
// the fused driver is active (its lower per-level overhead moves the
// crossover).
func (cfg *Config) criterion() Criterion { return cfg.criterionFor("") }

// criterionFor resolves the cutoff for a specific algorithm table: the
// "<kernel>/<algo>" calibrated row when one exists (each table's per-level
// savings-to-overhead ratio moves its crossover), falling back to the
// kernel's default-path resolution.
func (cfg *Config) criterionFor(algoName string) Criterion {
	if cfg.Criterion != nil {
		return cfg.Criterion
	}
	name := cfg.kernel().Name()
	if algoName != "" {
		if p, ok := defaultParams[name+"/"+algoName]; ok {
			return p.Hybrid()
		}
	}
	if cfg.FusedActive() {
		if p, ok := defaultParams[name+"+fused"]; ok {
			return p.Hybrid()
		}
	}
	return DefaultParams(name).Hybrid()
}

// criterionCores resolves the cutoff for a call executing on a cores-worker
// task runtime. τ is a function of the core count: threading the recursion
// shrinks a Strassen level's effective O(n²) overhead per core while the
// leaf GEMM rate scales with the cores too, so the crossover measured at one
// core does not transfer (cmd/calibrate's -cores sweep measures it and
// installs "<kernel>@<cores>" rows, optionally refined per algorithm as
// "<kernel>@<cores>/<algo>"). With no calibrated row for this core count the
// resolution falls back to the single-core chain — calibrate before trusting
// multi-core cutoffs.
func (cfg *Config) criterionCores(algoName string, cores int) Criterion {
	if cfg.Criterion != nil {
		return cfg.Criterion
	}
	if cores > 1 {
		name := cfg.kernel().Name() + "@" + strconv.Itoa(cores)
		if algoName != "" {
			if p, ok := defaultParams[name+"/"+algoName]; ok {
				return p.Hybrid()
			}
		}
		if p, ok := defaultParams[name]; ok {
			return p.Hybrid()
		}
	}
	return cfg.criterionFor(algoName)
}
