// Package repro is an open-source Go reproduction of Huss-Lederman,
// Jacobson, Johnson, Tsao and Turnbull, "Implementation of Strassen's
// Algorithm for Matrix Multiplication" (Supercomputing 1996).
//
// The headline export is DGEFMM, a drop-in replacement for the Level 3 BLAS
// DGEMM (C ← α·op(A)·op(B) + β·C) built on the Winograd variant of
// Strassen's algorithm with:
//
//   - minimal temporary memory: (m·max(k,n)+kn)/3 when β = 0 and
//     (mk+kn+mn)/3 in general — 2m²/3 and m² for square inputs (Table 1);
//   - dynamic peeling for odd dimensions with DGER/DGEMV fixups;
//   - the paper's parameterized hybrid cutoff criterion (15), calibrated
//     empirically per machine/kernel.
//
// The package also exposes the supporting systems the paper's evaluation
// needs: a reference BLAS subset whose three classic DGEMM kernels stand in
// for the paper's three machines (plus the packed cache-blocked kernel of
// internal/kernel, the default), the comparison codes DGEMMS/SGEMMS/DGEMMW,
// cutoff calibration, and an ISDA symmetric eigensolver whose kernel
// operation is matrix multiplication (Section 4.4).
//
// Quick start:
//
//	a := repro.NewRandomMatrix(500, 500, rng)
//	b := repro.NewRandomMatrix(500, 500, rng)
//	c := repro.NewMatrix(500, 500)
//	repro.Multiply(nil, c, repro.NoTrans, repro.NoTrans, 1, a, b, 0)
package repro

import (
	"math/rand"
	"net/http"

	"repro/internal/algo"
	"repro/internal/baselines"
	"repro/internal/batch"
	"repro/internal/blas"
	"repro/internal/cutoff"
	"repro/internal/eigen"
	"repro/internal/fastlevel3"
	"repro/internal/kernel"
	"repro/internal/linsolve"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/obs"
	"repro/internal/outofcore"
	"repro/internal/qr"
	"repro/internal/serve"
	"repro/internal/strassen"
	"repro/internal/zgemm"
)

// Matrix is a column-major dense matrix with an explicit leading dimension
// (stride), the storage convention of the BLAS and of the paper's code.
type Matrix = matrix.Dense

// Transpose selects op(X) = X or Xᵀ in the Level 3 interfaces.
type Transpose = blas.Transpose

// Transposition selectors.
const (
	// NoTrans selects op(X) = X.
	NoTrans = blas.NoTrans
	// Trans selects op(X) = Xᵀ.
	Trans = blas.Trans
)

// Config selects DGEFMM's kernel, cutoff criterion, computation schedule and
// odd-dimension strategy; see the strassen package for the full story. A
// nil *Config everywhere means "the paper's DGEFMM defaults".
type Config = strassen.Config

// Params holds empirically calibrated cutoff parameters (τ, τm, τk, τn) for
// one machine/kernel — the quantities of the paper's Tables 2 and 3.
type Params = strassen.Params

// Criterion is the recursion cutoff test interface (paper Section 3.4).
type Criterion = strassen.Criterion

// FusedMode selects whether DGEFMM may run its last recursion levels
// through the kernel's fused packing/write-out hooks (Config.Fused).
type FusedMode = strassen.FusedMode

// The fused-driver modes: auto-detect (default), force on, force off.
// DGEFMM_FUSED=auto|on|off overrides FusedAuto per process.
const (
	FusedAuto = strassen.FusedAuto
	FusedOn   = strassen.FusedOn
	FusedOff  = strassen.FusedOff
)

// ParseFusedMode parses a -fused style flag value (auto|on|off).
func ParseFusedMode(s string) (FusedMode, error) { return strassen.ParseFusedMode(s) }

// AlgoTable is one ⟨m,k,n⟩ fast matrix-multiplication algorithm as a
// (U, V, W) coefficient table with R products, verified against the Brent
// equations on construction. Set Config.Algo to a registered table's name
// (or AlgoAuto) to drive DGEFMM's recursion with it; leave it empty for
// the default hand-tuned Winograd path. DGEFMM_ALGO=name|auto overrides
// the default per process; an explicit Config.Algo wins over it.
type AlgoTable = algo.Table

// AlgoAuto selects a table per call shape: the registered table whose
// split ratios best match the operand aspect.
const AlgoAuto = strassen.AlgoAuto

// NewAlgoTable builds and verifies a coefficient table (see algo.New):
// u, v, w have m·k, k·n and m·n rows respectively and R columns each.
// Tables failing the Brent equations are rejected.
func NewAlgoTable(name string, m, k, n int, u, v, w [][]float64) (*AlgoTable, error) {
	return algo.New(name, m, k, n, u, v, w)
}

// RegisterAlgo adds a verified table to the registry, making it selectable
// by name through Config.Algo, DGEFMM_ALGO and AlgoAuto.
func RegisterAlgo(t *AlgoTable) error { return algo.Register(t) }

// AlgoByName looks up a registered table.
func AlgoByName(name string) (*AlgoTable, bool) { return algo.ByName(name) }

// AlgoTables returns the registered tables in registration order.
func AlgoTables() []*AlgoTable { return algo.Tables() }

// SelectAlgo returns the registered table auto-selection would pick for an
// m×k · k×n product (what Config.Algo = AlgoAuto resolves to).
func SelectAlgo(m, k, n int) *AlgoTable { return algo.Select(m, k, n) }

// ParseAlgo validates a -algo style flag value: "auto", "default"/"", or a
// registered table name.
func ParseAlgo(s string) (string, error) { return strassen.ParseAlgo(s) }

// The paper's cutoff criteria, re-exported for configuration.
type (
	// TheoreticalCriterion is inequality (7) from the op-count model.
	TheoreticalCriterion = strassen.Theoretical
	// SimpleCriterion is condition (11): stop when any dimension ≤ τ.
	SimpleCriterion = strassen.Simple
	// ScaledCriterion is Higham's condition (12).
	ScaledCriterion = strassen.Scaled
	// HybridCriterion is the paper's new condition (15).
	HybridCriterion = strassen.Hybrid
)

// MemoryTracker accounts temporary workspace words (used for Table 1).
type MemoryTracker = memtrack.Tracker

// NewMemoryTracker returns an empty workspace accountant.
func NewMemoryTracker() *MemoryTracker { return memtrack.New() }

// MemoryStats is an immutable snapshot of a MemoryTracker's accounting
// (live and peak words, fresh allocations, free-list reuses).
type MemoryStats = memtrack.Stats

// Collector is the observability hub for DGEFMM: attach one to a Config
// (see ObservedConfig) and every call records named metrics — per-action
// event counters, log-scale span-latency histograms, workspace and
// goroutine accounting — plus a timed span tree of the recursion with
// per-node wall time and derived GFLOPS, exportable as JSON and as Chrome
// trace-event files loadable in Perfetto. With no collector attached the
// tracing fast path is a nil check; overhead is unmeasurable.
type Collector = obs.Collector

// NewCollector returns an empty metrics registry + span recorder pair.
func NewCollector() *Collector { return obs.NewCollector() }

// StatsSnapshot is the immutable statistics struct a Collector produces:
// metric values, aggregated workspace accounting, parallel-kernel dispatch
// counts and a span-tree summary, all captured at one instant.
type StatsSnapshot = obs.Snapshot

// ObservedConfig returns the paper's DGEFMM configuration for a kernel
// with the collector attached: c records every recursion event, span and
// workspace figure for calls made under the returned config. Equivalent to
// c.Attach(DefaultConfig(kern)).
func ObservedConfig(kern blas.Kernel, c *Collector) *Config {
	return c.Attach(DefaultConfig(kern))
}

// StartDebugServer serves live observability over HTTP in the background:
// expvar under /debug/vars, pprof profiling under /debug/pprof/, the
// collector's snapshot as JSON under /metrics and its Chrome trace under
// /trace. It returns the running server (stop with Close) and the bound
// address. Pass port ":0" to let the OS choose.
func StartDebugServer(addr string, c *Collector) (*http.Server, string, error) {
	return obs.StartDebugServer(addr, c)
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix { return matrix.NewDense(r, c) }

// NewRandomMatrix allocates an r×c matrix with uniform [-1, 1) entries.
func NewRandomMatrix(r, c int, rng *rand.Rand) *Matrix { return matrix.NewRandom(r, c, rng) }

// NewRandomSymmetric allocates an n×n random symmetric matrix.
func NewRandomSymmetric(n int, rng *rand.Rand) *Matrix { return matrix.NewRandomSymmetric(n, rng) }

// KernelByName returns one of the built-in DGEMM kernels: "packed" (the
// packed cache-blocked micro-kernel of internal/kernel, the DGEFMM
// default), "blocked" (cache blocked with packing), "vector" (column/AXPY
// oriented) or "naive" (untuned triple loop). The latter three stand in
// for the paper's three machines; nil is returned for unknown names.
func KernelByName(name string) blas.Kernel { return blas.KernelByName(name) }

// PackedKernel returns a fresh instance of the packed cache-blocked kernel
// (the base-case engine DGEFMM uses by default). With compat true its block
// sizes are pinned to the legacy blocked kernel's, making its results
// bit-for-bit identical to DGEMM's — at some cost in speed on hosts whose
// caches want different blocking.
func PackedKernel(compat bool) blas.Kernel { return &kernel.Packed{Compat: compat} }

// DGEMM computes C ← alpha*op(A)*op(B) + beta*C with the standard algorithm
// on the default (blocked) kernel — the routine DGEFMM replaces.
func DGEMM(transA, transB Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64,
	c []float64, ldc int) {
	blas.Dgemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEFMM computes C ← alpha*op(A)*op(B) + beta*C with the paper's Strassen
// implementation. It accepts exactly the inputs DGEMM accepts and can be
// substituted for it call-for-call. cfg may be nil for the defaults.
func DGEFMM(cfg *Config, transA, transB Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64,
	c []float64, ldc int) {
	strassen.DGEFMM(cfg, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// Multiply is the Matrix-typed convenience form of DGEFMM:
// C ← alpha*op(A)*op(B) + beta*C.
func Multiply(cfg *Config, c *Matrix, transA, transB Transpose, alpha float64, a, b *Matrix, beta float64) {
	strassen.Multiply(cfg, c, transA, transB, alpha, a, b, beta)
}

// DefaultConfig returns the paper's DGEFMM configuration for a kernel
// (nil = the packed cache-blocked default): auto schedule (STRASSEN1 for
// β=0, STRASSEN2 otherwise), dynamic peeling, hybrid cutoff with
// calibrated parameters.
func DefaultConfig(kern blas.Kernel) *Config { return strassen.DefaultConfig(kern) }

// Calibrate reruns the paper's Section 4.2 cutoff measurement on this
// machine for the named kernel and returns the resulting parameters. The
// sweep bounds default to sensible ranges when zero. This is the
// programmatic form of cmd/calibrate.
func Calibrate(kernelName string, seed int64) Params {
	kern := blas.KernelByName(kernelName)
	if kern == nil {
		kern = blas.DefaultKernel
	}
	return cutoff.Calibrate(kern, 16, 256, 8, 8, 128, 4, 512, seed)
}

// SetDefaultParams installs calibrated parameters as the defaults used by
// DefaultConfig for the named kernel.
func SetDefaultParams(kernelName string, p Params) { strassen.SetDefaultParams(kernelName, p) }

// DefaultParamsFor returns the cutoff parameters currently installed for
// the named kernel (the Table 2/3 values for this machine).
func DefaultParamsFor(kernelName string) Params { return strassen.DefaultParams(kernelName) }

// BatchCall is one C ← α·op(A)·op(B) + β·C request of a batch: raw BLAS-style
// operands plus the scalars, independent of every other call in the batch.
type BatchCall = batch.Call

// BatchOptions configures a BatchPool: worker count, queue depth, the base
// DGEFMM Config shared by all calls, and an optional Collector.
type BatchOptions = batch.Options

// BatchPool executes batches of independent DGEFMM calls on a fixed worker
// pool. Each worker owns a reusable workspace arena sized by the shapes it
// serves — after the first batch warms it, same-shape batches run with zero
// fresh workspace allocations — and calls are bucketed by shape so repeated
// shapes share one frozen recursion plan. Intra-call parallelism is scaled
// down so workers × per-call threads stays within GOMAXPROCS.
type BatchPool = batch.Pool

// BatchStats is a snapshot of a BatchPool's counters and per-worker arena
// accounting.
type BatchStats = batch.Stats

// NewBatchCall builds a BatchCall from Matrix operands, panicking on shape
// mismatch exactly as Multiply would.
func NewBatchCall(c *Matrix, transA, transB Transpose, alpha float64, a, b *Matrix, beta float64) BatchCall {
	return batch.NewCall(c, transA, transB, alpha, a, b, beta)
}

// NewBatchPool starts a worker pool for batched DGEFMM execution. Close it
// when done. opts may be nil for the defaults (GOMAXPROCS workers, the
// paper's DGEFMM configuration).
func NewBatchPool(opts *BatchOptions) *BatchPool { return batch.NewPool(opts) }

// BatchedMultiply executes a batch of independent DGEFMM calls through a
// transient worker pool and returns the first error, if any. Results are
// bit-for-bit identical to calling Multiply in a loop with the same cfg.
// For repeated batches, keep a NewBatchPool instead so the workspace arenas
// and shape plans are reused across batches.
func BatchedMultiply(cfg *Config, calls []BatchCall) error { return batch.Multiply(cfg, calls) }

// EigenOptions configures the ISDA symmetric eigensolver.
type EigenOptions = eigen.Options

// EigenResult is a full symmetric eigendecomposition with effort statistics.
type EigenResult = eigen.Result

// SolveSymmetric computes the eigendecomposition of a symmetric matrix with
// the ISDA eigensolver of Section 4.4. Pass opts.Mul = StrassenMultiplier
// (or leave nil for DGEMM) to reproduce the Table 6 comparison.
func SolveSymmetric(a *Matrix, opts *EigenOptions) (*EigenResult, error) {
	return eigen.Solve(a, opts)
}

// GemmEigenMultiplier multiplies with the standard algorithm inside the
// eigensolver (the Table 6 baseline).
type GemmEigenMultiplier = eigen.GemmMultiplier

// StrassenEigenMultiplier multiplies with DGEFMM inside the eigensolver
// (the Table 6 treatment).
type StrassenEigenMultiplier = eigen.StrassenMultiplier

// DGEMMS is the IBM-ESSL-style multiply-only baseline: C = op(A)·op(B)
// (no alpha/beta; see Figure 3 and baselines.DgemmsGeneral).
func DGEMMS(transA, transB Transpose, m, n, k int,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	baselines.DGEMMS(nil, transA, transB, m, n, k, a, lda, b, ldb, c, ldc)
}

// SGEMMS is the CRAY-style baseline (Strassen's original variant; Figure 4).
func SGEMMS(transA, transB Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	baselines.SGEMMS(nil, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEMMW is the Douglas-et-al-style baseline (simple cutoff (11), dynamic
// padding; Figures 5–6).
func DGEMMW(transA, transB Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	baselines.DGEMMW(nil, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// ---- Extensions beyond the paper's core (its Section 5 future work and
// ---- noted gaps); see DESIGN.md §7.

// LU is a blocked LU factorization with partial pivoting whose trailing
// updates run through a pluggable multiplier — the application of the
// paper's reference [3] (Bailey et al., accelerating linear solves with
// Strassen).
type LU = linsolve.LU

// LUOptions configures FactorLU (block size, multiply engine).
type LUOptions = linsolve.Options

// FactorLU computes P·A = L·U with partial pivoting; pass
// StrassenEigenMultiplier in opts.Mul to accelerate the trailing updates
// with DGEFMM.
func FactorLU(a *Matrix, opts *LUOptions) (*LU, error) { return linsolve.Factor(a, opts) }

// SolveLinear solves A·X = B by blocked LU with DGEFMM-accelerated updates.
func SolveLinear(a, b *Matrix) (*Matrix, error) {
	lu, err := linsolve.Factor(a, &linsolve.Options{Mul: StrassenEigenMultiplier{}})
	if err != nil {
		return nil, err
	}
	return lu.Solve(b)
}

// QR is a blocked compact-WY Householder factorization with
// DGEFMM-accelerated block-reflector updates (the Knight [17] connection).
type QR = qr.QR

// QROptions configures FactorQR.
type QROptions = qr.Options

// FactorQR computes A = Q·R for m ≥ n; the result supports QMul, FormQ and
// LeastSquares.
func FactorQR(a *Matrix, opts *QROptions) (*QR, error) { return qr.Factor(a, opts) }

// FastDsyrk computes the symmetric rank-k update C ← alpha·op(A)·op(A)ᵀ +
// beta·C with asymptotically all arithmetic inside DGEFMM (Higham [11]).
// Arguments follow blas.Dsyrk; uplo is 'U' or 'L', trans 'N' or 'T'.
func FastDsyrk(uplo byte, trans Transpose, n, k int, alpha float64,
	a []float64, lda int, beta float64, c []float64, ldc int) {
	fastlevel3.Dsyrk(nil, blas.Uplo(uplo), trans, n, k, alpha, a, lda, beta, c, ldc)
}

// FastDtrsm solves op(A)·X = alpha·B in place for triangular A on the left,
// with the eliminations running through DGEFMM (Higham [11]). uplo is 'U'
// or 'L', diag 'N' or 'U'.
func FastDtrsm(uplo byte, transA Transpose, diag byte, m, n int,
	alpha float64, a []float64, lda int, b []float64, ldb int) {
	fastlevel3.Dtrsm(nil, blas.Uplo(uplo), transA, blas.Diag(diag), m, n, alpha, a, lda, b, ldb)
}

// Cholesky is a blocked L·Lᵀ factorization of a symmetric positive definite
// matrix with DGEFMM-accelerated trailing updates.
type Cholesky = linsolve.Cholesky

// CholeskyOptions configures FactorCholesky.
type CholeskyOptions = linsolve.CholeskyOptions

// FactorCholesky computes the lower Cholesky factor of a symmetric positive
// definite matrix (lower triangle read).
func FactorCholesky(a *Matrix, opts *CholeskyOptions) (*Cholesky, error) {
	return linsolve.FactorCholesky(a, opts)
}

// ZMatrix is a column-major complex matrix.
type ZMatrix = zgemm.ZDense

// NewZMatrix allocates a zeroed r×c complex matrix.
func NewZMatrix(r, c int) *ZMatrix { return zgemm.NewZDense(r, c) }

// ZNoTrans, ZTrans and ZConjTrans select op(X) for the complex routines.
const (
	ZNoTrans   = zgemm.NoTrans
	ZTrans     = zgemm.Trans
	ZConjTrans = zgemm.ConjTrans
)

// ZGEMM computes C ← alpha·op(A)·op(B) + beta·C for complex matrices with
// the straightforward algorithm.
func ZGEMM(transA, transB zgemm.Transpose, m, n, k int, alpha complex128,
	a, b *ZMatrix, beta complex128, c *ZMatrix) {
	zgemm.ZGEMM(transA, transB, m, n, k, alpha, a, b, beta, c)
}

// ZGEFMM computes the complex product via the 3M decomposition with each
// real product on DGEFMM — closing the complex-matrix gap the paper noted
// relative to DGEMMW.
func ZGEFMM(cfg *Config, transA, transB zgemm.Transpose, m, n, k int, alpha complex128,
	a, b *ZMatrix, beta complex128, c *ZMatrix) {
	zgemm.ZGEFMM(cfg, transA, transB, m, n, k, alpha, a, b, beta, c)
}

// MatrixStore is out-of-core matrix storage accessed by tiles (the paper's
// "extend our implementation to use virtual memory" future-work item).
type MatrixStore = outofcore.Store

// MemStore is an accounting in-memory MatrixStore.
type MemStore = outofcore.MemStore

// NewMemStore wraps a matrix as a MatrixStore with I/O accounting.
func NewMemStore(m *Matrix) *MemStore { return outofcore.NewMemStore(m) }

// CreateFileStore makes a file-backed MatrixStore (genuine out-of-core).
func CreateFileStore(path string, rows, cols int) (*outofcore.FileStore, error) {
	return outofcore.CreateFileStore(path, rows, cols)
}

// OutOfCoreOptions configures MultiplyOutOfCore.
type OutOfCoreOptions = outofcore.Options

// MultiplyOutOfCore computes C ← alpha·A·B + beta·C with all operands in
// slow storage, staging tiles through a bounded in-core workspace and
// multiplying tiles with DGEFMM.
func MultiplyOutOfCore(c, a, b MatrixStore, alpha, beta float64, opts *OutOfCoreOptions) error {
	return outofcore.Multiply(c, a, b, alpha, beta, opts)
}

// ServeOptions configures NewGEMMServer (the network serving layer over the
// batch pool: request coalescing, quotas, backpressure, an out-of-core path
// for oversized operands).
type ServeOptions = serve.Options

// GEMMServer is the HTTP GEMM service. Mount Handler on an http.Server and
// Close after shutdown; see cmd/dgefmmd for the production wiring.
type GEMMServer = serve.Server

// NewGEMMServer builds a GEMM service (nil opts = defaults: GOMAXPROCS
// workers, 500µs coalesce window, no quotas).
func NewGEMMServer(opts *ServeOptions) *GEMMServer { return serve.New(opts) }

// GEMMClient calls a GEMM service (a dgefmmd, or any GEMMServer.Handler).
type GEMMClient = serve.Client

// GEMMRequest is one client-side call; operands are row-major. The client
// sends them from the caller's memory: leave A, B and C unmodified until
// GEMMClient.GEMM returns.
type GEMMRequest = serve.GEMMRequest

// GEMMResult is a successful client call's outcome.
type GEMMResult = serve.GEMMResult
