package strassen

// Fused levels: the last recursion levels executed straight through the
// kernel's operand-fused packing and multi-destination write-out hooks
// (internal/kernel's FusedMulAdd), after Huang et al., "Implementing
// Strassen's Algorithm with BLIS" (arXiv:1605.01078). A fused level is a
// program whose products are (A-terms, B-terms, destinations) records
// derived from a coefficient table; the add/sub linear combinations happen
// inside the kernel's packing and C update, so a fused level allocates no
// S/T/M temporaries at all — the only workspace is the kernel's own two
// packed panels.
//
// The default path fuses Strassen's original 1969 construction, not the
// Winograd 15-add variant its materialized schedules use: Winograd's
// chained sums (S2 = A21 + A22 − A11, T4 = B22 − B12 + B11 − B21) need
// three- and four-term operand combinations whose intermediates its
// schedules reuse across products, while the 1969 form keeps every operand
// a ≤2-term and every product a ≤2-destination combination — exactly what
// a fused packing/write-out pass can form on the fly (Huang et al. fuse
// the same construction for the same reason). A fused level therefore
// trades Winograd's 15 O(n²) passes for 0 at the cost of re-reading
// quadrants during packing.
//
// Two levels fuse as one ("two-level ABC"): the 1969 construction composed
// with itself is 49 records on a 4×4 grid whose operands have at most four
// terms and whose products have at most four destinations. It runs where
// the kernel writes four destinations from registers (FusedDestLimit, the
// AVX2 tile) and the level's grandchildren are base cases, in place of a
// materialized level over seven fused children: the same leaves and
// multiplications (the upper level's additions become the 1969 form's,
// all inside packing and write-out), and no Strassen temporaries where
// that level held two or three. On a task runtime a fused level hands all
// its records to the kernel in one call, which pipelines their (record,
// jc, pc) steps over the workers (kernel/tasks.go).
// On the scalar and NEON tiles, which scatter extra destinations from a
// buffer, two fused levels measured slower than that materialized level
// (EXPERIMENTS.md), so their limit keeps one.
//
// Engagement: ScheduleAuto only (pinned schedules keep their exact
// materialized form — the analytic opcount and workspace tests depend on
// it), and only for the last levels of the recursion, where the criterion
// says the children (or grandchildren) are base cases. Deeper trees run a
// materialized level and re-test at each child, so fusion always replaces
// the leaf-adjacent levels where the O(n²) overhead bites hardest relative
// to the O(n³) saved. Under OddPeel a level the grid does not divide asks
// the same question of its blocks rounded up to the grid
// (policy.padsVirtually): when they fuse it runs fused on those blocks,
// clipped to the matrices, instead of peeling — the kernel reads the
// overhang as zero and never writes it, so the padding is virtual and
// bit-identical to running the level on zero-padded copies
// (fusedpad_test.go).

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/algo"
	"repro/internal/kernel"
	"repro/internal/sched"
)

// FusedMode selects whether DGEFMM may route the last recursion levels
// through the kernel's fused packing/write-out hooks.
type FusedMode int

const (
	// FusedAuto (the zero value) uses the fused driver whenever the
	// dispatched kernel implements the hooks, the schedule is auto, and the
	// cutoff criterion marks the children as base cases. The DGEFMM_FUSED
	// environment variable can override it per process.
	FusedAuto FusedMode = iota
	// FusedOn requests the fused driver explicitly (it still requires the
	// hooks and the auto schedule — a pinned schedule or hook-less kernel
	// runs unfused regardless).
	FusedOn
	// FusedOff disables the fused driver: the legacy materialized
	// schedules run exactly as before the hooks existed.
	FusedOff
)

// String returns the mode's flag spelling.
func (f FusedMode) String() string {
	switch f {
	case FusedAuto:
		return "auto"
	case FusedOn:
		return "on"
	case FusedOff:
		return "off"
	}
	return "unknown"
}

// ParseFusedMode parses a -fused flag value.
func ParseFusedMode(s string) (FusedMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return FusedAuto, nil
	case "on":
		return FusedOn, nil
	case "off":
		return FusedOff, nil
	}
	return FusedAuto, fmt.Errorf("unknown fused mode %q (want auto|on|off)", s)
}

// envFused returns the cached DGEFMM_FUSED override ("" when unset).
// Unknown values are reported once on stderr and ignored, mirroring
// internal/kernel's DGEFMM_KERNEL handling.
var envFused = sync.OnceValue(func() string {
	return normalizeEnvFused(os.Getenv("DGEFMM_FUSED"))
})

// normalizeEnvFused validates a DGEFMM_FUSED value. Split from the cached
// reader so tests can drive it directly.
func normalizeEnvFused(v string) string {
	n := strings.ToLower(strings.TrimSpace(v))
	switch n {
	case "", "auto", "on", "off":
		return n
	}
	fmt.Fprintf(os.Stderr, "strassen: ignoring unknown DGEFMM_FUSED=%q (want auto|on|off)\n", v)
	return ""
}

// fusedMode resolves the effective mode with the PR 5 dispatch-policy
// precedence: an explicit Config.Fused beats the environment, which beats
// auto-detection.
func (cfg *Config) fusedMode() FusedMode { return cfg.fusedModeFor(envFused()) }

// fusedModeFor is fusedMode with the environment override passed explicitly.
func (cfg *Config) fusedModeFor(env string) FusedMode {
	if cfg.Fused != FusedAuto {
		return cfg.Fused
	}
	switch env {
	case "on":
		return FusedOn
	case "off":
		return FusedOff
	}
	return FusedAuto
}

// FusedActive reports whether this configuration routes eligible recursion
// levels through the fused driver — the bit each call's policy holds. CLI
// tools log it as the effective -fused choice.
func (cfg *Config) FusedActive() bool { return cfg.fusedHooks() != nil }

// fusedHooks returns the kernel's fused hooks when eligible levels run
// fused: the effective mode is not off, the schedule is auto (pinned
// schedules keep their exact materialized form) and the kernel implements
// the hooks. It returns nil otherwise.
func (cfg *Config) fusedHooks() fusedKernel {
	if cfg.fusedMode() == FusedOff || cfg.Schedule != ScheduleAuto {
		return nil
	}
	return cfg.leafHooks()
}

// leafHooks returns the kernel's hooks whatever the fused mode and
// schedule, nil when it has none: every base case runs through them.
func (cfg *Config) leafHooks() fusedKernel {
	fk, _ := cfg.kernel().(fusedKernel)
	return fk
}

// fusedKernel is the structural product-hook interface a kernel
// implements to run products (internal/kernel's Packed does): one call
// runs a list of products — a fused level's whole record list, or a base
// case's one product (baseGemm) —, threaded on a multi-worker runtime,
// and scales each distinct destination by β once before it writes it.
// Every base case on such a kernel goes through it, whether or not levels
// fuse (the engine's hooks); policy.fk holds it only where levels may fuse.
// FusedDestLimit is how many destinations its write-out serves natively
// (which only gates tableFusable, and so whether two levels fuse). Kept
// structural like leafSizer so the strassen package does not choose a
// kernel implementation for its callers.
type fusedKernel interface {
	FusedMulAddTasks(sub sched.Submitter, m, n, kk int, alpha, beta float64, prods []kernel.Product)
	FusedDestLimit() int
}

// fusedTerm is one block reference in a record: grid position (r, c) in
// the table's block partition and its coefficient.
type fusedTerm struct {
	r, c int
	g    float64
}

// fusedRecord is one product: Ã = Σ a, B̃ = Σ b, accumulated into every
// destination in dst.
type fusedRecord struct {
	a, b, dst []fusedTerm
}

// classic is Strassen's 1969 construction, the table the default path
// fuses:
//
//	M1 = (A11+A22)(B11+B22) → C11, C22      M5 = (A11+A12)B22 → −C11, C12
//	M2 = (A21+A22)B11       → C21, −C22     M6 = (A21−A11)(B11+B12) → C22
//	M3 = A11(B12−B22)       → C12, C22      M7 = (A12−A22)(B21+B22) → C11
//	M4 = A22(B21−B11)       → C11, C21
//
// Every operand has ≤2 terms and every product ≤2 destinations, all ±1.
var classic = func() *algo.Table {
	t, _ := algo.ByName("classic")
	return t
}()

// classic2 is the 1969 construction composed with itself: two levels as
// one ⟨4,4,4⟩ table of 49 products, every operand ≤4 terms and every
// product ≤4 destinations, all ±1.
var classic2 = algo.MustCompose("classic2", classic, classic)

// fused2 is the two-level fused program: classic2's records on the 4×4
// grid. It counts as two recursion levels (Plan.Depth, the trace's
// deepest level).
var fused2 = &program{name: "fused2", m: 4, k: 4, n: 4, recs: tableFusedRecords(classic2)}

// tableFusable reports whether a table's products fit the kernel's fused
// hooks: ±1 coefficients (the hooks' bitwise contract), at most 4 operand
// terms (the packers' capacity) and a destination fan-out within the
// kernel's native write-out limit.
func tableFusable(t *algo.Table, destLimit int) bool {
	ops, dests := t.MaxTerms()
	if destLimit > 4 {
		destLimit = 4
	}
	return ops <= 4 && dests <= destLimit && t.PlusMinusOne()
}

// tableFusedRecords derives the fused record list from a table's term
// lists: block indices become grid coordinates on the table's own grids.
func tableFusedRecords(t *algo.Table) []fusedRecord {
	grid := func(terms []algo.Term, cols int) []fusedTerm {
		out := make([]fusedTerm, len(terms))
		for i, tm := range terms {
			out[i] = fusedTerm{r: tm.Block / cols, c: tm.Block % cols, g: tm.Coeff}
		}
		return out
	}
	recs := make([]fusedRecord, t.R)
	for r := 0; r < t.R; r++ {
		recs[r] = fusedRecord{
			a:   grid(t.ATerms(r), t.K),
			b:   grid(t.BTerms(r), t.N),
			dst: grid(t.CTerms(r), t.N),
		}
	}
	return recs
}
