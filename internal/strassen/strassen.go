package strassen

import (
	"context"

	"repro/internal/algo"
	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/phase"
	"repro/internal/sched"
)

// DGEFMM computes C ← alpha*op(A)*op(B) + beta*C with the paper's Strassen
// implementation. The signature mirrors the Level 3 BLAS DGEMM exactly
// (Section 3.1): op(A) is m×k, op(B) is k×n, C is m×n, all column-major
// with leading dimensions lda, ldb, ldc. cfg may be nil for the default
// configuration.
func DGEFMM(cfg *Config, transA, transB blas.Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64,
	c []float64, ldc int) {
	_ = dgefmm(nil, nil, cfg, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEFMMCtx is DGEFMM with mid-execution cancellation: the recursion polls
// ctx between products (and the task DAG drains its remaining bodies), so
// an expired deadline stops a running multiply instead of only gating
// admission. On a non-nil error C holds a partial result the caller must
// discard; A and B are never written.
func DGEFMMCtx(ctx context.Context, cfg *Config, transA, transB blas.Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64,
	c []float64, ldc int) error {
	return dgefmm(ctx, nil, cfg, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEFMMTask is DGEFMMCtx for callers already running inside a sched task:
// sub must be the *sched.Worker the task body received (or an external
// *sched.Runtime), and the call's DAG levels and threaded leaves submit
// through it — nesting by helping on the worker's own deque rather than
// blocking the pool from outside, which is how internal/batch routes calls
// through one shared core budget without deadlock.
func DGEFMMTask(ctx context.Context, sub sched.Submitter, cfg *Config, transA, transB blas.Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64,
	c []float64, ldc int) error {
	return dgefmm(ctx, sub, cfg, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

func dgefmm(ctx context.Context, outer sched.Submitter, cfg *Config, transA, transB blas.Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64,
	c []float64, ldc int) error {
	if cfg == nil {
		cfg = DefaultConfig(nil)
	}
	// Run the identical checks DGEMM performs, by calling it with alpha=0,
	// beta=1 so no arithmetic happens but every argument is vetted. This
	// guarantees DGEFMM accepts exactly the inputs DGEMM accepts.
	blas.Dgemm(transA, transB, m, n, k, 0, a, lda, b, ldb, 1, c, ldc)
	if m == 0 || n == 0 {
		return ctxErr(ctx)
	}

	cm := matrix.FromColMajor(m, n, ldc, c)
	if alpha == 0 || k == 0 {
		scaleInPlace(cm, beta)
		return ctxErr(ctx)
	}

	av := matrix.View{Rows: m, Cols: k, Stride: lda, Trans: transA.IsTrans(), Data: a}
	bv := matrix.View{Rows: k, Cols: n, Stride: ldb, Trans: transB.IsTrans(), Data: b}

	sub := outer
	if sub == nil && cfg.Sched != nil {
		sub = cfg.Sched
	}
	cores := 0
	if sub != nil {
		cores = sub.Workers()
	}
	e := &engine{
		policy:  cfg.policy(m, k, n, cores),
		kern:    cfg.kernel(),
		tracker: cfg.Tracker,
		sub:     sub,
		tracer:  cfg.Tracer,
		prof:    phase.Active(),
		ctx:     ctx,
	}
	if st, ok := cfg.Tracer.(SpanTracer); ok {
		e.spans = st
	}
	if e.odd == OddPadStatic {
		e.staticPadMul(cm, av, bv, alpha, beta)
	} else {
		e.mul(cm, av, bv, alpha, beta, 0)
	}
	return ctxErr(ctx)
}

// ctxErr adapts the optional context to the error DGEFMMCtx reports.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Multiply is a convenience wrapper over DGEFMM for *matrix.Dense values:
// C ← alpha*op(A)*op(B) + beta*C.
func Multiply(cfg *Config, c *matrix.Dense, transA, transB blas.Transpose,
	alpha float64, a, b *matrix.Dense, beta float64) {
	m, k := a.Rows, a.Cols
	if transA.IsTrans() {
		m, k = k, m
	}
	kb, n := b.Rows, b.Cols
	if transB.IsTrans() {
		kb, n = n, kb
	}
	if kb != k {
		panic("strassen: Multiply: inner dimensions mismatch")
	}
	if c.Rows != m || c.Cols != n {
		panic("strassen: Multiply: output shape mismatch")
	}
	DGEFMM(cfg, transA, transB, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
}

// engine carries the resolved configuration through the recursion.
type engine struct {
	policy
	kern    blas.Kernel
	tracker *memtrack.Tracker
	// sub is the task runtime this call submits to (nil for a purely
	// sequential call): an external *sched.Runtime at the top, or the
	// executing *sched.Worker inside a product task so nested DAGs help on
	// the worker's own deque. ctx, when non-nil, is polled between
	// products for mid-execution cancellation. See taskdag.go.
	sub    sched.Submitter
	ctx    context.Context
	tracer Tracer
	// spans is tracer narrowed to SpanTracer (nil when the tracer does not
	// record spans); curSpan is the innermost open span on this engine's
	// goroutine — worker engines copy it, so spans opened inside a parallel
	// product are parented under the "parallel" node that spawned them.
	spans   SpanTracer
	curSpan int64
	// prof is the process-wide phase profiler captured once per DGEFMM call
	// (nil when attribution is off). Worker engines copy it by value.
	prof *phase.Profiler
}

// policy holds every input of the recursion's decisions. The engine runs
// its decision functions and PlanFor replays them, so the plan follows
// the executed recursion by construction.
type policy struct {
	// crit is Config.Criterion; when it is nil the calibrated row decides.
	crit     Criterion
	row      Hybrid
	sched    Schedule
	odd      OddStrategy
	maxDepth int
	// tbl is the coefficient table driving a non-default recursion (nil on
	// the default ⟨2,2,2⟩ path, where the paper's schedules run).
	tbl *algo.Table
	// fk is the kernel's fused hook interface when eligible levels run
	// fused (Config.fusedHooks), nil otherwise; fused levels stream
	// through it. See fused.go.
	fk fusedKernel
	// dagLevels is the number of top recursion levels that run as task
	// DAGs (0 without a task runtime); lanes caps the products in flight
	// per DAG level.
	dagLevels int
	lanes     int
}

// policy resolves a Config into the recursion's decision inputs for an
// m×k·k×n call on a cores-worker runtime (0 without one): the table (nil
// for the default path), whether levels may run fused, and the cutoff —
// Config.Criterion, or the calibrated row for that kernel, table, fused
// mode and core count. It is the only place a Config is resolved, once per
// call. The pad strategies apply only to the default path.
func (cfg *Config) policy(m, k, n, cores int) policy {
	p := policy{crit: cfg.Criterion, sched: cfg.Schedule, odd: cfg.Odd,
		maxDepth: cfg.MaxDepth, tbl: cfg.resolveAlgo(m, k, n), fk: cfg.fusedHooks()}
	algoName := ""
	if p.tbl != nil {
		algoName, p.odd = p.tbl.Name, OddPeel
	}
	if p.crit == nil {
		p.row = Hybrid(calibrated(cfg.kernel().Name(), algoName, p.fk != nil, cores))
	}
	p.lanes, p.dagLevels, _ = cfg.schedParams(p.table().R)
	return p
}

// table is the coefficient table the level programs derive from: the
// configured one, or Winograd's ⟨2,2,2⟩ on the default path.
func (p *policy) table() *algo.Table {
	if p.tbl != nil {
		return p.tbl
	}
	return algo.Default()
}

// grid is the block grid one level splits (m, k, n) into.
func (p *policy) grid() (int, int, int) {
	t := p.table()
	return t.M, t.K, t.N
}

// recurse is the cutoff test: the grid must fit and the criterion (and
// depth bound) must ask for another level.
func (p *policy) recurse(m, k, n, depth int) bool {
	gm, gk, gn := p.grid()
	return m >= gm && k >= gk && n >= gn &&
		(p.maxDepth == 0 || depth < p.maxDepth) &&
		p.criterion(m, k, n)
}

// criterion asks the cutoff criterion — Config.Criterion, or else the
// calibrated row — whether (m, k, n) recurses.
func (p *policy) criterion(m, k, n int) bool {
	if p.crit != nil {
		return p.crit.Recurse(m, k, n)
	}
	return p.row.Recurse(m, k, n)
}

// levelProgram picks the program one level runs on (m, k, n), split into
// blocks of the grid rounded up (ceilDiv): the task DAG on the top
// dagLevels levels; the fused form when levels may run fused (fk), the
// children would be base cases and the table fits the hooks (the default
// path fuses Strassen's 1969 construction, whose operands have at most two
// terms, where Winograd's have up to four);
// otherwise the table's sequential program, or on the default path the
// schedule β selects (Table 1). A program runs on a shape the grid does
// not divide only when it pads virtually (virtual.go); otherwise it gets
// the divisible core from peeling or padding.
func (p *policy) levelProgram(m, k, n int, betaZero bool, depth int) *program {
	if depth < p.dagLevels {
		t := p.table()
		return programsFor(t).dag(p.dagLanes(t.R))
	}
	if p.fk != nil {
		ft := p.tbl
		if ft == nil {
			ft = classic
		}
		gm, gk, gn := p.grid()
		if !p.recurse(ceilDiv(m, gm), ceilDiv(k, gk), ceilDiv(n, gn), depth+1) && tableFusable(ft, p.fk.FusedDestLimit()) {
			return programsFor(ft).fused
		}
	}
	if p.tbl != nil {
		return programsFor(p.tbl).seq
	}
	switch resolveSchedule(p.sched, betaZero) {
	case ScheduleOriginal:
		return original
	case ScheduleStrassen1:
		if betaZero {
			return strassen1
		}
		return strassen1General
	}
	return strassen2
}

// ceilDiv is ⌈x/d⌉ for positive d.
func ceilDiv(x, d int) int { return (x + d - 1) / d }

// dagLanes is the in-flight product cap of a DAG level with r products.
func (p *policy) dagLanes(r int) int {
	if p.lanes < 1 || p.lanes > r {
		return r
	}
	return p.lanes
}

// mul computes c ← alpha*a*b + beta*c where a is m×k and b is k×n (both as
// logical, possibly transposed, views). It applies the cutoff criterion,
// then the odd-dimension strategy, then one level program. Under OddPeel
// an odd shape peels unless its level pads virtually. Below a virtually
// padded level a and b may pad and c may store less than m×n (only what
// lies inside the caller's C); such a subproblem never peels — its parent
// padded only because it accepts them (policy.accepts).
func (e *engine) mul(c *matrix.Dense, a, b matrix.View, alpha, beta float64, depth int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || n == 0 || e.canceled() {
		return
	}
	if k == 0 || alpha == 0 {
		scaleInPlace(c, beta)
		return
	}
	x := extentOf(c, a, b)
	over := x != full(m, k, n)
	if !e.recurse(m, k, n, depth) {
		done := e.trace(depth, m, k, n, "base")
		if over {
			e.hookLeaf(c, a, b, alpha, beta)
		} else {
			e.baseGemm(c, a, b, alpha, beta)
		}
		done()
		return
	}
	gm, gk, gn := e.grid()
	odd := m%gm|k%gk|n%gn != 0
	done := noopDone
	switch e.odd {
	case OddPadDynamic:
		if odd {
			done = e.trace(depth, m, k, n, "pad-dynamic")
		}
		e.padDynamicMul(c, a, b, alpha, beta, depth)
	case OddPeelFirst:
		if odd {
			done = e.trace(depth, m, k, n, "peel-first")
		}
		e.peelFirstMul(c, a, b, alpha, beta, depth)
	default: // OddPeel (and OddPadStatic below the pre-padded top level)
		if (odd || over) && !e.padsVirtually(m, k, n, beta == 0, depth, x) {
			if over {
				panic("strassen: a level below a virtually padded one cannot pad virtually")
			}
			done = e.trace(depth, m, k, n, "peel")
			e.peelMul(c, a, b, alpha, beta, depth)
		} else {
			e.level(c, a, b, alpha, beta, depth)
		}
	}
	done()
}

// level runs one level program: on an exactly grid-divisible problem, or
// on one it pads virtually.
func (e *engine) level(c *matrix.Dense, a, b matrix.View, alpha, beta float64, depth int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	p := e.levelProgram(m, k, n, beta == 0, depth)
	done := e.trace(depth, m, k, n, p.name)
	e.exec(p, c, a, b, alpha, beta, depth)
	done()
}

// peelMul implements dynamic peeling (Section 3.3 and equation (9)),
// generalized to an M×K×N grid: one level on the largest grid-divisible
// core, then border repairs — the inner-dimension remainder into the core,
// the peeled columns, the peeled rows. A remainder of exactly 1 (always
// the case on the default ⟨2,2,2⟩ grid) is the paper's DGER rank-one
// update and two DGEMV matrix-vector products; wider remainders run one
// base-case GEMM each.
func (e *engine) peelMul(c *matrix.Dense, a, b matrix.View, alpha, beta float64, depth int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	gm, gk, gn := e.grid()
	me, ke, ne := m-m%gm, k-k%gk, n-n%gn

	coreC := c.Slice(0, 0, me, ne)
	e.level(coreC, a.Slice(0, 0, me, ke), b.Slice(0, 0, ke, ne), alpha, beta, depth)

	if k-ke == 1 {
		// C11 ← C11 + alpha * a12 * b21 : rank-one update with A's peeled
		// column and B's peeled row.
		done := e.trace(depth, m, k, n, "fixup-ger")
		s := e.prof.Begin(phase.StrassenPeel)
		x, incX := colVec(a, ke)
		y, incY := rowVec(b, ke)
		blas.Dger(me, ne, alpha, x, incX, y, incY, coreC.Data, coreC.Stride)
		s.End(2*int64(me)*int64(ne), 8*(int64(me)+int64(ne)+2*int64(me)*int64(ne)))
		done()
	} else if k != ke {
		done := e.trace(depth, m, k, n, "fixup-gemm-k")
		e.baseGemm(coreC, a.Slice(0, ke, me, k-ke), b.Slice(ke, 0, k-ke, ne), alpha, 1)
		done()
	}
	if n-ne == 1 {
		// c12 ← alpha * [A11 a12]·[b12; b22] + beta*c12 : the full first me
		// rows of op(A) (all k columns) times B's peeled column.
		done := e.trace(depth, m, k, n, "fixup-col")
		s := e.prof.Begin(phase.StrassenPeel)
		x, incX := colVec(b, ne)
		e.gemvN(a.Slice(0, 0, me, k), alpha, x, incX, beta, c.Data[ne*c.Stride:], 1)
		s.End(2*int64(me)*int64(k), 8*(int64(me)*int64(k)+int64(k)+2*int64(me)))
		done()
	} else if n != ne {
		done := e.trace(depth, m, k, n, "fixup-gemm-n")
		e.baseGemm(c.Slice(0, ne, me, n-ne), a.Slice(0, 0, me, k), b.Slice(0, ne, k, n-ne), alpha, beta)
		done()
	}
	if m-me == 1 {
		// [c21 c22] ← alpha * [a21 a22]·B + beta*row : op(A)'s peeled row
		// times the whole of op(B), covering the bottom-right corner too.
		done := e.trace(depth, m, k, n, "fixup-row")
		s := e.prof.Begin(phase.StrassenPeel)
		x, incX := rowVec(a, me)
		e.gemvT(b, alpha, x, incX, beta, c.Data[me:], c.Stride)
		s.End(2*int64(k)*int64(n), 8*(int64(k)*int64(n)+int64(k)+2*int64(n)))
		done()
	} else if m != me {
		done := e.trace(depth, m, k, n, "fixup-gemm-m")
		e.baseGemm(c.Slice(me, 0, m-me, n), a.Slice(me, 0, m-me, k), b.Slice(0, 0, k, n), alpha, beta)
		done()
	}
}

// baseGemm performs the standard-algorithm multiplication below the cutoff.
// With a multi-worker task runtime attached, a leaf on a kernel that
// supports it threads its rows through the runtime (see
// kernel.MulAddTasks): the adapter still routes through blas.DgemmKernel
// so argument validation and the beta pass stay identical to the
// sequential leaf.
func (e *engine) baseGemm(c *matrix.Dense, a, b matrix.View, alpha, beta float64) {
	ta, tb := blas.NoTrans, blas.NoTrans
	if a.Trans {
		ta = blas.Trans
	}
	if b.Trans {
		tb = blas.Trans
	}
	kern := e.kern
	if e.threadLeaves() {
		if tk, ok := kern.(taskLeafKernel); ok {
			kern = taskKernel{tk, e.sub}
		}
	}
	blas.DgemmKernel(kern, ta, tb, c.Rows, c.Cols, a.Cols, alpha,
		a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
}

// threadLeaves reports whether leaves split their rows across the
// engine's runtime: whenever it has more than one worker.
func (e *engine) threadLeaves() bool {
	return e.sub != nil && e.sub.Workers() > 1
}

// taskLeafKernel is the structural interface of a kernel whose leaf loop
// nest can run as scheduler tasks (kernel.Packed implements it).
type taskLeafKernel interface {
	blas.Kernel
	MulAddTasks(sub sched.Submitter, threads int, transA, transB blas.Transpose, m, n, k int, alpha float64,
		a []float64, lda int, b []float64, ldb int, c []float64, ldc int)
}

// taskKernel adapts a taskLeafKernel so its MulAdd threads through the
// engine's submitter, over all of its workers; embedding forwards every
// other Kernel method.
type taskKernel struct {
	taskLeafKernel
	sub sched.Submitter
}

func (t taskKernel) MulAdd(transA, transB blas.Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	t.MulAddTasks(t.sub, t.sub.Workers(), transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// gemvN computes y ← alpha*V*x + beta*y for a logical view V (y has V.Rows
// elements, x has V.Cols).
func (e *engine) gemvN(v matrix.View, alpha float64, x []float64, incX int, beta float64, y []float64, incY int) {
	if !v.Trans {
		blas.Dgemv(blas.NoTrans, v.Rows, v.Cols, alpha, v.Data, v.Stride, x, incX, beta, y, incY)
		return
	}
	// Storage holds Vᵀ (V.Cols × V.Rows): y = alpha*storageᵀ*x + beta*y.
	blas.Dgemv(blas.Trans, v.Cols, v.Rows, alpha, v.Data, v.Stride, x, incX, beta, y, incY)
}

// gemvT computes y ← alpha*Vᵀ*x + beta*y for a logical view V (y has V.Cols
// elements, x has V.Rows).
func (e *engine) gemvT(v matrix.View, alpha float64, x []float64, incX int, beta float64, y []float64, incY int) {
	if !v.Trans {
		blas.Dgemv(blas.Trans, v.Rows, v.Cols, alpha, v.Data, v.Stride, x, incX, beta, y, incY)
		return
	}
	blas.Dgemv(blas.NoTrans, v.Cols, v.Rows, alpha, v.Data, v.Stride, x, incX, beta, y, incY)
}

// colVec returns logical column j of a view as a strided vector.
func colVec(v matrix.View, j int) ([]float64, int) {
	if !v.Trans {
		return v.Data[j*v.Stride:], 1
	}
	return v.Data[j:], v.Stride
}

// rowVec returns logical row i of a view as a strided vector.
func rowVec(v matrix.View, i int) ([]float64, int) {
	if !v.Trans {
		return v.Data[i:], v.Stride
	}
	return v.Data[i*v.Stride:], 1
}

// allocMat takes an r×c scratch matrix from the tracker.
func (e *engine) allocMat(r, c int) *matrix.Dense {
	buf := e.tracker.Alloc(r * c)
	ld := r
	if ld < 1 {
		ld = 1
	}
	return matrix.FromColMajor(r, c, ld, buf)
}

// freeMat returns scratch to the tracker.
func (e *engine) freeMat(m *matrix.Dense) {
	e.tracker.Free(m.Data)
}

func scaleInPlace(c *matrix.Dense, beta float64) {
	switch beta {
	case 1:
	case 0:
		c.Zero()
	default:
		c.Scale(beta)
	}
}
