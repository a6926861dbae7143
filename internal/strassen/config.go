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
	"maps"
	"strconv"
	"sync/atomic"

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
	// row/column and repair with rank-one and matrix-vector fixups —
	// wherever a level cannot pad virtually instead. A level whose program
	// allows it (virtual.go) runs on blocks rounded up to the grid without
	// copies: blocks past the matrices read as zero and are never stored,
	// so the padding needs no fixups and costs no workspace beyond the
	// temporaries' rounding.
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
	// condition (15) with the calibrated row (SetDefaultParams) that
	// matches each call: its kernel, coefficient table, fused mode and
	// task-runtime core count, looked up when the call starts.
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
	// Sched, if non-nil, threads the call on this work-stealing task
	// runtime (internal/sched). The recursion runs the same level
	// programs, in the same order, as without it; each materialized
	// level's lin passes split into one task per column band of their
	// destination, and the packed kernel's calls — leaves and fused levels
	// — thread by column bands of B̃ slivers, a fused level's records as
	// one task DAG of (record, jc, pc) steps. So the result's bits and the
	// Strassen workspace are those of the call without a runtime, on every
	// worker count. Multiple Configs may share one runtime — tasks from
	// concurrent calls interleave under a single core budget.
	Sched *sched.Runtime
	// Tracer, if non-nil, receives one TraceEvent per recursion decision
	// (base-case, schedule level, peel/pad action, fixup). A Tracer that
	// also implements SpanTracer additionally receives timed, parented
	// BeginSpan/EndSpan brackets around every node (see internal/obs for
	// the standard collector). The events of one call come from its
	// calling goroutine; implementations shared by concurrent calls must
	// be concurrency-safe.
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
// The "+fused" rows apply when the fused driver is active (auto schedule,
// hook-capable kernel, fused mode not off). They are older than the fused
// packers they describe: re-measured with cmd/calibrate -fused on (see
// EXPERIMENTS.md, "Crossover, re-measured and not applied"), one fused
// SIMD level wins from n ≈ 160 up (the curve crosses between 128 and 160),
// and the scalar packed tile's fused crossover sits near τ ≈ 192. The rows
// are deliberately left at 448 and 136. On the AVX2 tile the 1024²
// benchmark workload runs its two levels as one two-level fused node with
// no Strassen temporaries; lowering "simd+fused" below 256 gives it a
// third level, which runs as a materialized Winograd level above
// two-level fused children on 128² leaves and brings back that level's
// two 512² temporaries (4.19 MB), breaking the workspace bound, so the
// change waits for a cutoff model that bounds the depth (ROADMAP item 1).
// The "<kernel>/<algo>" rows apply when a non-default coefficient table
// drives the recursion (Config.Algo / DGEFMM_ALGO); they come from
// cmd/calibrate -algo sweeps on the development host (see EXPERIMENTS.md
// for the methodology). The pattern across the rows: a table's crossover
// scales inversely with its per-level speedup M·K·N/R — classic ⟨2,2,2⟩
// (8/7, like Winograd but three more C passes) sits near the kernel's own
// τ, ⟨3,2,3⟩ (18/17) and ⟨4,2,4⟩ (32/28) need larger blocks before their
// thinner savings clear the O(n²) grid overhead, and ⟨3,3,3⟩ (27/26) only
// pays on the biggest shapes in the measured range.
// cmd/calibrate -cores adds "<kernel>@<cores>" and "<kernel>@<cores>/<algo>"
// rows for calls on a multi-worker task runtime; none ship.
//
// The table is copy-on-write: SetDefaultParams installs a new map, so
// multiplies resolving their cutoff concurrently read a consistent one.
var defaultParams atomic.Pointer[map[string]Params]

func init() {
	defaultParams.Store(&map[string]Params{
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
	})
}

// DefaultParams returns the calibrated cutoff parameters for a kernel name
// (or any other row key), falling back to the blocked kernel's parameters
// for unknown names.
func DefaultParams(kernelName string) Params {
	rows := *defaultParams.Load()
	if p, ok := rows[kernelName]; ok {
		return p
	}
	return rows["blocked"]
}

// SetDefaultParams overrides the default parameters for a row key — a
// kernel name, or one of the "+fused", "/<algo>" and "@<cores>" forms
// cmd/calibrate prints — the programmatic equivalent of re-running the
// paper's calibration experiments on a new machine. It takes effect on the
// next multiply of every Config without an explicit Criterion, including
// ones built earlier, and is safe to call while multiplies run.
func SetDefaultParams(kernelName string, p Params) {
	for {
		old := defaultParams.Load()
		rows := maps.Clone(*old)
		rows[kernelName] = p
		if defaultParams.CompareAndSwap(old, &rows) {
			return
		}
	}
}

// calibrated is the one lookup of the calibrated cutoff row for a call:
// kernel names the base-case kernel, algoName the coefficient table driving
// the recursion ("" on the default path), fused whether the fused driver is
// active and cores the task runtime's worker count (0 without one). The
// most specific row wins: "<kernel>@<cores>/<algo>", "<kernel>@<cores>"
// (the crossover measured on one core does not transfer to several — with
// no row for this core count the single-core rows apply, so calibrate
// before trusting multi-core cutoffs), "<kernel>/<algo>", "<kernel>+fused",
// then the kernel's own row and finally the blocked kernel's.
func calibrated(kernel, algoName string, fused bool, cores int) Params {
	rows := *defaultParams.Load()
	if cores > 1 {
		at := kernel + "@" + strconv.Itoa(cores)
		if algoName != "" {
			if p, ok := rows[at+"/"+algoName]; ok {
				return p
			}
		}
		if p, ok := rows[at]; ok {
			return p
		}
	}
	if algoName != "" {
		if p, ok := rows[kernel+"/"+algoName]; ok {
			return p
		}
	}
	if fused {
		if p, ok := rows[kernel+"+fused"]; ok {
			return p
		}
	}
	if p, ok := rows[kernel]; ok {
		return p
	}
	return rows["blocked"]
}

// DefaultConfig returns the paper's DGEFMM configuration for the given
// kernel (nil = the packed cache-blocked kernel, the fastest base-case
// multiplier; select "blocked"/"naive"/"vector" explicitly via
// blas.KernelByName for the ablation arms): auto schedule, dynamic peeling,
// and the hybrid cutoff with the calibrated row each call resolves.
func DefaultConfig(kern blas.Kernel) *Config {
	if kern == nil {
		kern = kernel.Default()
	}
	return &Config{Kernel: kern}
}

func (cfg *Config) kernel() blas.Kernel {
	if cfg.Kernel == nil {
		return kernel.Default()
	}
	return cfg.Kernel
}

// schedCores returns the worker count of the runtime a call would execute
// on (0 when no task runtime is configured); PlanFor consults it so the
// "<kernel>@<cores>" calibration rows and the threaded kernel calls see
// the same figure the engine does.
func (cfg *Config) schedCores() int {
	if cfg.Sched == nil {
		return 0
	}
	return cfg.Sched.Workers()
}
