// Package cutoff implements the paper's Section 3.4/4.2 empirical cutoff
// methodology: measuring where one level of Strassen's algorithm becomes
// faster than DGEMM — on square matrices (the crossover τ of Table 2 and
// Figure 2) and on long-thin rectangular sweeps (the parameters τm, τk, τn
// of Table 3) — and comparing complete cutoff criteria on random problem
// sets (Table 4).
package cutoff

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/sched"
	"repro/internal/strassen"
)

// RatioPoint is one measurement of Figure 2: the time ratio
// DGEMM/DGEFMM(one level) at a given swept dimension. Ratio > 1 means one
// Strassen level is faster.
type RatioPoint struct {
	Dim   int
	Ratio float64
}

// oneLevelConfig builds a DGEFMM configuration forced to apply exactly one
// level of Strassen's recursion — the comparison object of the paper's
// calibration experiments. The workspace tracker makes repeated calls reuse
// their temporaries (as the paper's code does): without it every timed call
// re-allocates its workspace, and the garbage-collection churn — which
// depends on the heap state left behind by whatever ran earlier — would
// contaminate the measured crossover.
//
// fused selects which one-level form is timed. The legacy sweeps pin
// FusedOff so they keep measuring the materialized Winograd schedules the
// paper's Tables 2/3 describe (an Always criterion with MaxDepth 1 would
// otherwise silently engage the fused driver on hook-capable kernels and
// move every historical crossover). The *Fused sweeps pin FusedOn to
// calibrate the fused driver's own, lower crossover.
func oneLevelConfig(kern blas.Kernel, fused strassen.FusedMode) *strassen.Config {
	cfg := &strassen.Config{
		Kernel:    kern,
		Criterion: strassen.Always{},
		MaxDepth:  1,
		Odd:       strassen.OddPeel,
		Fused:     fused,
		Tracker:   memtrack.New(),
	}
	if configHook != nil {
		configHook(cfg)
	}
	return cfg
}

// configHook, when installed, sees every one-level configuration the
// calibration sweeps build before it is used.
var configHook func(*strassen.Config)

// SetConfigHook installs (or, with nil, removes) a function applied to each
// internally built sweep configuration. cmd/calibrate uses it to attach the
// observability collector so long calibration runs expose metrics and span
// traces; it is not safe to change while a sweep is running.
func SetConfigHook(fn func(*strassen.Config)) { configHook = fn }

// timePair measures DGEMM and one-level DGEFMM on an m×k × k×n problem and
// returns the two per-call times in seconds. With a runtime rt both arms
// run on it: DGEMM as a DGEFMM base case, whose leaf threads by column
// bands of B̃ slivers, and the level with its lin passes and its products'
// leaves threaded by column bands.
func timePair(kern blas.Kernel, fused strassen.FusedMode, rt *sched.Runtime, m, k, n int, alpha, beta float64, rng *rand.Rand) (tGemm, tOneLevel float64) {
	a := matrix.NewRandom(m, k, rng)
	b := matrix.NewRandom(k, n, rng)
	c := matrix.NewRandom(m, n, rng)
	cw := c.Clone()
	cfg := oneLevelConfig(kern, fused)
	gemm := func() {
		blas.DgemmKernel(kern, blas.NoTrans, blas.NoTrans, m, n, k, alpha,
			a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
	}
	if rt != nil {
		cfg.Sched = rt
		base := &strassen.Config{Kernel: kern, Criterion: strassen.Never{}, Sched: rt}
		gemm = func() {
			strassen.DGEFMM(base, blas.NoTrans, blas.NoTrans, m, n, k, alpha,
				a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
		}
	}
	// BestOf(2) filters single-run noise; the crossover sits where the two
	// curves differ by a few percent, so one stray measurement moves it.
	tGemm = bench.BestOf(2, gemm)
	tOneLevel = bench.BestOf(2, func() {
		strassen.DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, alpha,
			a.Data, a.Stride, b.Data, b.Stride, beta, cw.Data, cw.Stride)
	})
	return tGemm, tOneLevel
}

// SquareRatioCurve reproduces Figure 2: for each order m in dims it returns
// the ratio time(DGEMM)/time(DGEFMM one level) with the given alpha/beta
// (the paper calibrates with α=1, β=0). Odd orders exercise the peeling
// fixups, producing the figure's saw-tooth.
func SquareRatioCurve(kern blas.Kernel, dims []int, alpha, beta float64, seed int64) []RatioPoint {
	return squareRatioCurve(kern, strassen.FusedOff, nil, dims, alpha, beta, seed)
}

// SquareRatioCurveFused is SquareRatioCurve with the one-level arm forced
// through the kernel's fused packing/write-out driver (FusedOn).
func SquareRatioCurveFused(kern blas.Kernel, dims []int, alpha, beta float64, seed int64) []RatioPoint {
	return squareRatioCurve(kern, strassen.FusedOn, nil, dims, alpha, beta, seed)
}

func squareRatioCurve(kern blas.Kernel, fused strassen.FusedMode, rt *sched.Runtime, dims []int, alpha, beta float64, seed int64) []RatioPoint {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]RatioPoint, 0, len(dims))
	for _, m := range dims {
		tg, ts := timePair(kern, fused, rt, m, m, m, alpha, beta, rng)
		pts = append(pts, RatioPoint{Dim: m, Ratio: tg / ts})
	}
	return pts
}

// ChooseCrossover picks τ from a ratio curve the way the paper does for the
// RS/6000: the crossover is not a single clean point ("Strassen becomes
// better at m = 176 and is always more efficient if m ≥ 214"), so the paper
// picks a τ inside the range where Strassen is "almost always better ...
// and when it is slower it is so by a very small amount" (they chose 199).
//
// Concretely: find the smallest sweep point from which at least 75 % of the
// remaining points favor Strassen (ratio > 1); τ is the midpoint of that
// point and the largest losing dimension at or before it. If no such stable
// region exists, Strassen never reliably wins and τ is the largest sweep
// point; if Strassen wins everywhere, τ is one below the smallest.
func ChooseCrossover(pts []RatioPoint) int {
	if len(pts) == 0 {
		return 0
	}
	pts = medianFilter(pts)
	stable := -1
	for i := range pts {
		wins := 0
		for _, p := range pts[i:] {
			if p.Ratio > 1 {
				wins++
			}
		}
		if 4*wins >= 3*len(pts[i:]) {
			stable = i
			break
		}
	}
	if stable < 0 {
		return pts[len(pts)-1].Dim
	}
	lastLose := pts[0].Dim - 2 // pretend the loss region ends just below the sweep
	for _, p := range pts[:stable+1] {
		if p.Ratio < 1 && p.Dim > lastLose {
			lastLose = p.Dim
		}
	}
	tau := (lastLose + pts[stable].Dim) / 2
	if tau < 0 {
		tau = 0
	}
	return tau
}

// medianFilter smooths a ratio curve with a 3-point running median,
// suppressing isolated stride-aliasing spikes so they do not masquerade as
// crossover structure. Endpoints are kept as-is.
func medianFilter(pts []RatioPoint) []RatioPoint {
	if len(pts) < 3 {
		return pts
	}
	out := append([]RatioPoint(nil), pts...)
	for i := 1; i < len(pts)-1; i++ {
		a, b, c := pts[i-1].Ratio, pts[i].Ratio, pts[i+1].Ratio
		out[i].Ratio = median3(a, b, c)
	}
	return out
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// SquareCutoff measures the square crossover τ (one Table 2 entry) for a
// kernel by sweeping orders in [lo, hi] with the given step.
func SquareCutoff(kern blas.Kernel, lo, hi, step int, seed int64) (int, []RatioPoint) {
	return squareCutoff(kern, strassen.FusedOff, nil, lo, hi, step, seed)
}

// SquareCutoffFused measures the square crossover of one *fused* Strassen
// level — the τ installed under the "<kernel>+fused" parameter key.
func SquareCutoffFused(kern blas.Kernel, lo, hi, step int, seed int64) (int, []RatioPoint) {
	return squareCutoff(kern, strassen.FusedOn, nil, lo, hi, step, seed)
}

func squareCutoff(kern blas.Kernel, fused strassen.FusedMode, rt *sched.Runtime, lo, hi, step int, seed int64) (int, []RatioPoint) {
	var dims []int
	for m := lo; m <= hi; m += step {
		dims = append(dims, m)
	}
	pts := squareRatioCurve(kern, fused, rt, dims, 1, 0, seed)
	return ChooseCrossover(pts), pts
}

// threadedLeaf is the structural interface of a kernel whose leaves thread
// on a task runtime (kernel.Packed's MulAddTasks); any other kernel's
// DGEMM arm would run on one core.
type threadedLeaf interface {
	MulAddTasks(sub sched.Submitter, transA, transB blas.Transpose, m, n, k int, alpha float64,
		a []float64, lda int, b []float64, ldb int, c []float64, ldc int)
}

// SquareCutoffCores measures the square crossover τ of one parallel
// Strassen level executed on a cores-worker work-stealing runtime against
// DGEMM threaded on the same runtime — the per-core-count analogue of
// SquareCutoff whose result installs under the "<kernel>@<cores>"
// parameter key that Config resolution consults when a runtime is
// attached. It fails for a kernel whose leaves cannot thread. Meaningful
// only when the host actually has that many cores; on a smaller machine
// the ratio degenerates toward the sequential curve.
func SquareCutoffCores(kern blas.Kernel, cores, lo, hi, step int, seed int64) (int, []RatioPoint, error) {
	if _, ok := kern.(threadedLeaf); !ok {
		return 0, nil, fmt.Errorf("cutoff: kernel %q cannot thread its leaves on a runtime; no cores sweep", kern.Name())
	}
	rt := sched.New(cores, seed)
	defer rt.Close()
	tau, pts := squareCutoff(kern, strassen.FusedOff, rt, lo, hi, step, seed)
	return tau, pts, nil
}

// Dim selects which of (m, k, n) a rectangular sweep varies.
type Dim int

// The three dimensions of a multiplication.
const (
	DimM Dim = iota
	DimK
	DimN
)

// String names the dimension.
func (d Dim) String() string { return [...]string{"m", "k", "n"}[d] }

// RectRatioCurve sweeps one dimension over dims while holding the other two
// at fixed (the paper holds them "at a large value", 2000 on the RS/6000
// and C90, 1500 on the T3D), returning the Figure-2-style ratio curve for
// that direction.
func RectRatioCurve(kern blas.Kernel, sweep Dim, dims []int, fixed int, seed int64) []RatioPoint {
	return rectRatioCurve(kern, strassen.FusedOff, sweep, dims, fixed, seed)
}

func rectRatioCurve(kern blas.Kernel, fused strassen.FusedMode, sweep Dim, dims []int, fixed int, seed int64) []RatioPoint {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]RatioPoint, 0, len(dims))
	for _, d := range dims {
		m, k, n := fixed, fixed, fixed
		switch sweep {
		case DimM:
			m = d
		case DimK:
			k = d
		case DimN:
			n = d
		}
		tg, ts := timePair(kern, fused, nil, m, k, n, 1, 0, rng)
		pts = append(pts, RatioPoint{Dim: d, Ratio: tg / ts})
	}
	return pts
}

// RectParams measures τm, τk, τn (one Table 3 row) for a kernel: each
// parameter is the crossover of the sweep that varies its dimension with
// the other two held at fixed. "When k and n are large, their contribution
// in (14) is negligible, so that the parameter τm can be set to the
// crossover point determined from the experiment where k and n are fixed."
func RectParams(kern blas.Kernel, lo, hi, step, fixed int, seed int64) strassen.Params {
	return rectParams(kern, strassen.FusedOff, lo, hi, step, fixed, seed)
}

// RectParamsFused is RectParams with the one-level arm forced through the
// fused driver — the τm, τk, τn for the "<kernel>+fused" parameter key.
func RectParamsFused(kern blas.Kernel, lo, hi, step, fixed int, seed int64) strassen.Params {
	return rectParams(kern, strassen.FusedOn, lo, hi, step, fixed, seed)
}

func rectParams(kern blas.Kernel, fused strassen.FusedMode, lo, hi, step, fixed int, seed int64) strassen.Params {
	sweep := func(d Dim) int {
		var dims []int
		for v := lo; v <= hi; v += step {
			dims = append(dims, v)
		}
		return ChooseCrossover(rectRatioCurve(kern, fused, d, dims, fixed, seed))
	}
	return strassen.Params{
		TauM: sweep(DimM),
		TauK: sweep(DimK),
		TauN: sweep(DimN),
	}
}

// Calibrate runs the full Section 4.2 procedure for one kernel: the square
// crossover sweep and the three rectangular sweeps, returning a complete
// parameter set for the hybrid criterion (15).
func Calibrate(kern blas.Kernel, sqLo, sqHi, sqStep, rectLo, rectHi, rectStep, fixed int, seed int64) strassen.Params {
	tau, _ := SquareCutoff(kern, sqLo, sqHi, sqStep, seed)
	p := RectParams(kern, rectLo, rectHi, rectStep, fixed, seed+1)
	p.Tau = tau
	return p
}

// CalibrateFused is Calibrate for the fused driver: the same square and
// rectangular sweeps with the one-level arm running fused, yielding the
// parameter set for SetDefaultParams("<kernel>+fused", ...). Only
// meaningful for kernels implementing the fused hooks; on others the
// driver falls back to the materialized schedule and the result matches
// Calibrate up to noise.
func CalibrateFused(kern blas.Kernel, sqLo, sqHi, sqStep, rectLo, rectHi, rectStep, fixed int, seed int64) strassen.Params {
	tau, _ := SquareCutoffFused(kern, sqLo, sqHi, sqStep, seed)
	p := RectParamsFused(kern, rectLo, rectHi, rectStep, fixed, seed+1)
	p.Tau = tau
	return p
}
