package strassen

// This file adds shape plans on top of the recursion: a Plan freezes every
// decision DGEFMM would make for one (m, k, n, β-class) shape — the cutoff
// verdict at each level, the peel/pad actions, the recursion depth and the
// exact temporary-workspace peak in words — so repeated same-shape calls
// (the batched workload of internal/batch) replay cached decisions instead
// of re-deriving them, and so a workspace arena can be sized up front.
//
// The workspace figures are derived, not mirrored: PlanFor walks the
// engine's own decision functions (policy) and reads each level's
// workspace off the program that level runs — its declared temporaries
// (STRASSEN1's R1/R2, STRASSEN2's R1/R2/R3 of Figure 1, a table's S/T/P,
// a DAG level's per-operand and per-product buffers), the fold buffer of
// STRASSEN1 with β ≠ 0, plus the padded copies of the padding strategies.
// Plan.Words therefore equals the measured memtrack peak (memory_test.go
// asserts equality), while WorkspaceBound gives the closed-form Table 1
// bound the measurements sit under.

// WorkspaceBound returns the paper's analytic bound (Table 1), in float64
// words, on the temporary workspace DGEFMM needs for an m×k by k×n product
// under the given schedule and β class:
//
//   - STRASSEN1 with β = 0 (and auto, which selects it):
//     (m·max(k,n) + kn)/3 — 2m²/3 in the square case;
//   - STRASSEN2 (and auto with β ≠ 0, and the original 1969 schedule, which
//     uses the same three temporaries): (mk + kn + mn)/3 — m² square;
//   - STRASSEN1 forced with β ≠ 0: mn on top of the β = 0 figure (the
//     general case folds a β = 0 product through an m×n scratch), within
//     the paper's 2m² square bound.
//
// The bound covers the peeling odd-dimension strategy (whose fixups
// allocate nothing); the padding and parallel schedules trade extra
// workspace for their benefits and are bounded by Plan.Words instead.
func WorkspaceBound(sched Schedule, m, k, n int, betaZero bool) int64 {
	mx := k
	if n > mx {
		mx = n
	}
	strassen1 := (int64(m)*int64(mx) + int64(k)*int64(n)) / 3
	switch sched {
	case ScheduleStrassen1:
		if betaZero {
			return strassen1
		}
		return int64(m)*int64(n) + strassen1
	case ScheduleAuto:
		if betaZero {
			return strassen1
		}
	}
	// STRASSEN2, the original schedule, and auto with β ≠ 0.
	return (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n)) / 3
}

// Plan is a frozen set of recursion decisions for one DGEFMM shape class:
// every (m, k, n) triple the recursion reaches, with the cutoff criterion's
// verdict for it, plus the resulting recursion depth and the exact peak
// temporary workspace in words. Same-shape calls share one Plan; its cached
// criterion is read-only after construction and safe for concurrent use
// from any number of goroutines.
type Plan struct {
	// M, N, K and BetaZero identify the planned shape class: C is M×N,
	// the inner dimension is K, and BetaZero tells whether β = 0 (which
	// selects STRASSEN1 under the auto schedule).
	M, N, K  int
	BetaZero bool
	// Depth is the number of recursion levels the criterion produces.
	Depth int
	// Words is the exact peak temporary workspace, in float64 words, a
	// call of this shape allocates from Config.Tracker (the figure a
	// per-worker arena must hold to serve the shape with zero fresh
	// allocations). It excludes the base-case kernel's packing workspace,
	// which lives in the kernel's own arena and is reported separately in
	// KernelWords — keeping Words directly comparable to the paper's
	// Table 1 bounds.
	Words int64
	// KernelWords is the peak packing workspace, in float64 words, the
	// base-case kernel draws from its own arena while serving this shape:
	// the worst leaf's requirement, times the number of concurrent leaves
	// under the parallel schedule. Zero when the kernel keeps no accounted
	// workspace (naive, vector, blocked).
	KernelWords int64
	// TopSchedule is the schedule the top level resolves to (auto resolved
	// to STRASSEN1 or STRASSEN2 by β). On a table-driven plan it reports
	// the schedule the default path would have used; the executor is the
	// table named in Algo instead.
	TopSchedule Schedule
	// Algo is the coefficient table the plan simulates ("" for the default
	// hand-coded Winograd path), resolved from the planned Config exactly
	// as DGEFMM resolves it (including per-shape auto-selection).
	Algo string

	decisions map[[3]int]bool
	fallback  Criterion
}

// PlanFor simulates the recursion cfg would perform on an m×k by k×n
// product (betaZero tells whether β = 0) and returns the frozen Plan.
// A nil cfg plans the default configuration.
func PlanFor(cfg *Config, m, n, k int, betaZero bool) *Plan {
	if cfg == nil {
		cfg = DefaultConfig(nil)
	}
	cores := cfg.schedCores()
	pol := cfg.policy(m, k, n, cores)
	p := &Plan{
		M: m, N: n, K: k, BetaZero: betaZero,
		TopSchedule: resolveSchedule(cfg.Schedule, betaZero),
		decisions:   make(map[[3]int]bool),
		fallback:    pol.crit,
	}
	if pol.tbl != nil {
		p.Algo = pol.tbl.Name
	}
	pol.crit = recorder{pol.crit, p.decisions}
	s := &planSim{policy: pol, plan: p, memo: make(map[planKey]simResult)}
	if ls, ok := cfg.kernel().(leafSizer); ok {
		s.leaf = ls.LeafWorkspace
	}
	if cores > 1 {
		// A multi-worker runtime threads the plan's leaves (MulAddTasks):
		// each leaf's arena draw grows to the parallel figure.
		if pls, ok := cfg.kernel().(parallelLeafSizer); ok {
			s.leaf = func(m, n, k int) int64 {
				return pls.LeafWorkspaceParallel(m, n, k, cores)
			}
		}
	}
	var r simResult
	if s.odd == OddPadStatic {
		r = s.simStatic(m, k, n, betaZero)
	} else {
		r = s.sim(m, k, n, betaZero, 0)
	}
	p.Words, p.KernelWords = r.words, r.kernel
	return p
}

// leafSizer is the structural interface a kernel implements to report its
// per-call workspace (internal/kernel's Packed does): the exact words one
// MulAdd of the given logical shape draws from the kernel's arena. Kept
// structural so the strassen package does not choose a kernel
// implementation for its callers.
type leafSizer interface {
	LeafWorkspace(m, n, k int) int64
}

// parallelLeafSizer is the threaded-leaf analogue (kernel.Packed's
// LeafWorkspaceParallel): the words one MulAddTasks draws when its MC loop
// splits across the given thread count. Structural for the same reason as
// leafSizer.
type parallelLeafSizer interface {
	LeafWorkspaceParallel(m, n, k, threads int) int64
}

// Criterion returns a cutoff criterion that replays the plan's cached
// decisions by table lookup, falling back to the planned configuration's
// live criterion for triples outside the plan (which a call of the planned
// shape never produces). The returned value is safe for concurrent use.
func (p *Plan) Criterion() Criterion {
	return plannedCriterion{decisions: p.decisions, fallback: p.fallback}
}

// Apply returns a copy of cfg with the plan's cached criterion installed —
// the hook batched execution uses to share one plan across workers.
func (p *Plan) Apply(cfg *Config) *Config {
	if cfg == nil {
		cfg = DefaultConfig(nil)
	}
	out := *cfg
	out.Criterion = p.Criterion()
	return &out
}

// resolveSchedule maps the auto schedule to the concrete schedule β selects
// (Table 1, last row); explicit schedules resolve to themselves.
func resolveSchedule(sched Schedule, betaZero bool) Schedule {
	if sched != ScheduleAuto {
		return sched
	}
	if betaZero {
		return ScheduleStrassen1
	}
	return ScheduleStrassen2
}

// plannedCriterion replays a Plan's decision table.
type plannedCriterion struct {
	decisions map[[3]int]bool
	fallback  Criterion
}

// Name implements Criterion.
func (c plannedCriterion) Name() string { return "planned(" + c.fallback.Name() + ")" }

// Recurse implements Criterion.
func (c plannedCriterion) Recurse(m, k, n int) bool {
	if d, ok := c.decisions[[3]int{m, k, n}]; ok {
		return d
	}
	return c.fallback.Recurse(m, k, n)
}

// recorder is the criterion PlanFor's simulation consults: it records
// every verdict into the plan's decision table (asking the live criterion
// once per triple).
type recorder struct {
	inner     Criterion
	decisions map[[3]int]bool
}

// Name implements Criterion.
func (r recorder) Name() string { return r.inner.Name() }

// Recurse implements Criterion.
func (r recorder) Recurse(m, k, n int) bool {
	key := [3]int{m, k, n}
	if d, ok := r.decisions[key]; ok {
		return d
	}
	d := r.inner.Recurse(m, k, n)
	r.decisions[key] = d
	return d
}

// planKey memoizes simulated subproblems. Depth participates because
// MaxDepth and SchedLevels make behavior depth-dependent.
type planKey struct {
	m, k, n  int
	betaZero bool
	depth    int
}

// simResult is one subtree's workspace accounting: Strassen temporaries
// (words) and base-case kernel packing workspace (kernel), tracked apart
// because they come from different arenas.
type simResult struct {
	words  int64
	kernel int64
}

// planSim walks the recursion with the engine's own decision functions
// (policy) and level programs, accumulating the peak workspace of each
// subtree.
type planSim struct {
	policy
	plan *Plan
	leaf func(m, n, k int) int64 // nil for kernels without accounted workspace
	memo map[planKey]simResult
}

// leafWords is the kernel workspace of one base-case multiply.
func (s *planSim) leafWords(m, n, k int) int64 {
	if s.leaf == nil {
		return 0
	}
	return s.leaf(m, n, k)
}

// sim mirrors engine.mul: cutoff test, odd-dimension strategy, then one
// level program. It returns the peak workspace of the subtree.
func (s *planSim) sim(m, k, n int, betaZero bool, depth int) simResult {
	if m == 0 || n == 0 || k == 0 {
		return simResult{}
	}
	key := planKey{m: m, k: k, n: n, betaZero: betaZero, depth: depth}
	if r, ok := s.memo[key]; ok {
		return r
	}
	var r simResult
	switch {
	case !s.recurse(m, k, n, depth):
		r.kernel = s.leafWords(m, n, k)
	case s.odd == OddPadDynamic:
		s.plan.Depth = max(s.plan.Depth, depth+1)
		mp, kp, np := m+(m&1), k+(k&1), n+(n&1)
		r = s.level(mp, kp, np, betaZero, depth)
		if mp != m || kp != k || np != n {
			r.words += int64(mp)*int64(kp) + int64(kp)*int64(np) + int64(mp)*int64(np)
		}
	case s.padsVirtually(m, k, n, betaZero, depth):
		s.plan.Depth = max(s.plan.Depth, depth+1)
		r = s.level(m, k, n, betaZero, depth)
	default: // peeling, first or last: a level on the core, then fixups
		s.plan.Depth = max(s.plan.Depth, depth+1)
		gm, gk, gn := s.grid()
		me, ke, ne := m-m%gm, k-k%gk, n-n%gn
		r = s.level(me, ke, ne, betaZero, depth)
		// The wide fixups run after the core level's temporaries are
		// freed; each is one kernel leaf, so only the kernel peak can move.
		// A remainder of exactly 1 repairs with DGER/DGEMV (no draw).
		for _, fix := range []struct{ rem, m, n, k int }{
			{k - ke, me, ne, k - ke}, // inner-dimension repair into the core
			{n - ne, me, n - ne, k},  // peeled columns
			{m - me, m - me, n, k},   // peeled rows
		} {
			if fix.rem > 1 {
				r.kernel = max(r.kernel, s.leafWords(fix.m, fix.n, fix.k))
			}
		}
	}
	s.memo[key] = r
	return r
}

// level accounts one level program on a grid-divisible problem, or a fused
// one padding virtually: a fused level draws only the kernel's panels at
// the (rounded-up) block shape; any other needs
// its declared temporaries plus its worst child — or, on a DAG level,
// lanes concurrent β = 0 children, each of which can be inside a kernel
// leaf at once.
func (s *planSim) level(m, k, n int, betaZero bool, depth int) simResult {
	p := s.levelProgram(m, k, n, betaZero, depth)
	mq, kq, nq := ceilDiv(m, p.m), ceilDiv(k, p.k), ceilDiv(n, p.n)
	if p.recs != nil {
		return simResult{kernel: s.leafWords(mq, nq, kq)}
	}
	own := p.words(m, k, n)
	if p.tasks != nil {
		conc := int64(s.dagLanes(p.products()))
		child := s.sim(mq, kq, nq, true, depth+1)
		return simResult{words: own + conc*child.words, kernel: conc * child.kernel}
	}
	body, bz := p, betaZero
	if p.fold != nil {
		body, bz = p.fold, true
	}
	var worst simResult
	for i := range body.ops {
		if o := &body.ops[i]; o.mul {
			child := s.sim(mq, kq, nq, o.acc == acc0 || (o.acc == accBeta && bz), depth+1)
			worst.words = max(worst.words, child.words)
			worst.kernel = max(worst.kernel, child.kernel)
		}
	}
	return simResult{words: own + worst.words, kernel: worst.kernel}
}

// simStatic mirrors staticPadMul: predict the depth, pad once to a multiple
// of 2^depth, then run the recursion depth-bounded with no odd dimensions.
func (s *planSim) simStatic(m, k, n int, betaZero bool) simResult {
	d := s.predictDepth(m, k, n)
	s.plan.Depth = d
	if d == 0 {
		return simResult{kernel: s.leafWords(m, n, k)}
	}
	unit := 1 << uint(d)
	mp, kp, np := roundUp(m, unit), roundUp(k, unit), roundUp(n, unit)
	inner := *s
	inner.odd, inner.maxDepth = OddPeel, d
	inner.memo = make(map[planKey]simResult)
	r := inner.sim(mp, kp, np, betaZero, 0)
	if mp != m || kp != k || np != n {
		r.words += int64(mp)*int64(kp) + int64(kp)*int64(np) + int64(mp)*int64(np)
	}
	return r
}
