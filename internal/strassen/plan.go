package strassen

// This file adds shape plans on top of the recursion: a Plan records what
// DGEFMM does on one (m, k, n, β-class) shape — the recursion depth and
// the exact temporary-workspace peak in words — so a workspace arena can be
// sized up front (the batched workload of internal/batch plans each shape
// once). Calls re-derive their decisions from the same policy; a Hybrid
// verdict costs a few integer operations.
//
// The workspace figures are derived, not mirrored: PlanFor walks the
// engine's own decision functions (policy) and reads each level's
// workspace off the program that level runs — its declared temporaries
// (STRASSEN1's R1/R2, STRASSEN2's R1/R2/R3 of Figure 1, a table's S/T/P),
// the fold buffer of STRASSEN1 with β ≠ 0, plus the padded copies of the
// padding strategies. A task runtime changes none of it: a call on one
// runs the programs it runs without, in the same order.
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
// allocate nothing), on a task runtime as without one; the padding
// strategies trade extra workspace for their benefits and are bounded by
// Plan.Words instead.
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

// Plan describes the recursion of one DGEFMM shape class under one
// configuration: the recursion depth and the exact peak temporary
// workspace in words. It is read-only after construction.
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
	// the worst kernel call's requirement (on a task runtime, a threaded
	// call's, see leafSizer). Zero when the kernel keeps no accounted
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
}

// PlanFor simulates the recursion cfg would perform on an m×k by k×n
// product (betaZero tells whether β = 0) and returns its Plan.
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
	}
	if pol.tbl != nil {
		p.Algo = pol.tbl.Name
	}
	s := &planSim{policy: pol, plan: p, memo: make(map[planKey]simResult), workers: cores}
	if ls, ok := cfg.kernel().(leafSizer); ok {
		s.leaf = ls.CallWorkspace
	}
	var r simResult
	if s.odd == OddPadStatic {
		r = s.simStatic(m, k, n, betaZero)
	} else {
		r = s.sim(m, k, n, betaZero, 0, full(m, k, n))
	}
	p.Words, p.KernelWords = r.words, r.kernel
	return p
}

// leafSizer is the structural interface a kernel implements to report its
// per-call workspace (internal/kernel's Packed does): the exact words one
// call of products products of the given logical shape draws from the
// kernel's arena on a runtime of workers workers — a sequential call's Ã
// panel and the B̃ sliver or panel it keeps; a threaded call's two Ã
// buffers (one for a call of a single block), which its Ã share tasks
// fill by turns, and one KC×NR B̃ sliver per column band, or the one KC×NC
// panel its bands share when the rows span several MC blocks
// (MulAddTasks, FusedMulAddTasks).
// Kept structural so the strassen package does not choose a kernel
// implementation for its callers.
type leafSizer interface {
	CallWorkspace(workers, products, m, n, k int) int64
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

// planKey memoizes simulated subproblems. Depth participates because
// MaxDepth makes behavior depth-dependent, the extent
// because it decides whether an odd level pads virtually or peels.
type planKey struct {
	m, k, n  int
	betaZero bool
	depth    int
	x        extent
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
	leaf func(workers, products, m, n, k int) int64 // nil for kernels without accounted workspace
	memo map[planKey]simResult
	// workers is the task runtime's worker count (0 without one): every
	// kernel call of the recursion runs on it.
	workers int
}

// leafWords is the kernel workspace of one kernel call of products
// products: a base-case multiply (one), or a fused level (its records).
func (s *planSim) leafWords(products, m, n, k int) int64 {
	if s.leaf == nil {
		return 0
	}
	return s.leaf(s.workers, products, m, n, k)
}

// sim mirrors engine.mul on a subproblem whose operands store x: cutoff
// test, odd-dimension strategy, then one level program. It returns the
// peak workspace of the subtree.
func (s *planSim) sim(m, k, n int, betaZero bool, depth int, x extent) simResult {
	if m == 0 || n == 0 || k == 0 {
		return simResult{}
	}
	key := planKey{m: m, k: k, n: n, betaZero: betaZero, depth: depth, x: x}
	if r, ok := s.memo[key]; ok {
		return r
	}
	var r simResult
	switch {
	case !s.recurse(m, k, n, depth):
		r.kernel = s.leafWords(1, m, n, k)
	case s.odd == OddPadDynamic:
		mp, kp, np := m+(m&1), k+(k&1), n+(n&1)
		r = s.level(mp, kp, np, betaZero, depth, full(mp, kp, np))
		if mp != m || kp != k || np != n {
			r.words += int64(mp)*int64(kp) + int64(kp)*int64(np) + int64(mp)*int64(np)
		}
	case s.padsVirtually(m, k, n, betaZero, depth, x):
		r = s.level(m, k, n, betaZero, depth, x)
	default: // peeling, first or last: a level on the core, then fixups
		gm, gk, gn := s.grid()
		me, ke, ne := m-m%gm, k-k%gk, n-n%gn
		r = s.level(me, ke, ne, betaZero, depth, full(me, ke, ne))
		// The wide fixups run after the core level's temporaries are
		// freed; each is one kernel leaf, so only the kernel peak can move.
		// A remainder of exactly 1 repairs with DGER/DGEMV (no draw).
		for _, fix := range []struct{ rem, m, n, k int }{
			{k - ke, me, ne, k - ke}, // inner-dimension repair into the core
			{n - ne, me, n - ne, k},  // peeled columns
			{m - me, m - me, n, k},   // peeled rows
		} {
			if fix.rem > 1 {
				r.kernel = max(r.kernel, s.leafWords(1, fix.m, fix.n, fix.k))
			}
		}
	}
	s.memo[key] = r
	return r
}

// level accounts one level program on operands that store x, on a
// grid-divisible problem or one padding virtually, and the recursion
// levels it runs (two for the two-level fused form): a fused level draws
// only the kernel's panels of one call of its records at the (rounded-up)
// block shape; any other needs its declared temporaries plus its worst
// child, since its children run one after another.
func (s *planSim) level(m, k, n int, betaZero bool, depth int, x extent) simResult {
	p := s.levelProgram(m, k, n, betaZero, depth)
	s.plan.Depth = max(s.plan.Depth, depth+p.levels())
	if p.recs != nil {
		return simResult{kernel: s.leafWords(len(p.recs), ceilDiv(m, p.m), ceilDiv(n, p.n), ceilDiv(k, p.k))}
	}
	own := p.words(m, k, n)
	body, bz := p, betaZero
	if p.fold != nil {
		body, bz, x.cr, x.cc = p.fold, true, m, n
	}
	bl := body.blocks(m, k, n, x)
	var worst simResult
	for i := range body.ops {
		if o := &body.ops[i]; o.mul {
			child := s.sim(bl.mq, bl.kq, bl.nq, o.childBetaZero(bz), depth+1, bl.child(o))
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
		return simResult{kernel: s.leafWords(1, m, n, k)}
	}
	unit := 1 << uint(d)
	mp, kp, np := roundUp(m, unit), roundUp(k, unit), roundUp(n, unit)
	inner := *s
	inner.odd, inner.maxDepth = OddPeel, d
	inner.memo = make(map[planKey]simResult)
	r := inner.sim(mp, kp, np, betaZero, 0, full(mp, kp, np))
	if mp != m || kp != k || np != n {
		r.words += int64(mp)*int64(kp) + int64(kp)*int64(np) + int64(mp)*int64(np)
	}
	return r
}
