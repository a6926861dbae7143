// Package perfmodel implements the modeling methodology of the paper's
// companion report (reference [14], Huss-Lederman et al., CCS-TR-96-14):
// the paper's Section 3.4 observes that "in practice operation count is not
// an accurate enough predictor of performance to be used to tune actual
// code" and refers to richer models. This package fits a two-term cost
// model to measured multiply times,
//
//	t(m, k, n) ≈ c₃·mkn + c₂·(mk + kn + mn) + c₀,
//
// separating the cubic arithmetic term from the quadratic memory-traffic
// term (whose machine-dependent ratio is exactly what moves the Strassen
// cutoff away from the op-count prediction of 12), and uses the fitted
// models to *predict* the square crossover, which can then be checked
// against the measured Table 2 values.
//
// The least-squares fit runs on this repository's own blocked QR.
package perfmodel

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/qr"
	"repro/internal/strassen"
)

// Sample is one timed multiplication.
type Sample struct {
	M, K, N int
	Seconds float64
}

// Model is the fitted cost surface t = C3·mkn + C2·(mk+kn+mn) + C0.
type Model struct {
	C3, C2, C0 float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// Predict evaluates the model.
func (mo Model) Predict(m, k, n int) float64 {
	cubic := float64(m) * float64(k) * float64(n)
	quad := float64(m)*float64(k) + float64(k)*float64(n) + float64(m)*float64(n)
	return mo.C3*cubic + mo.C2*quad + mo.C0
}

// String formats the model.
func (mo Model) String() string {
	return fmt.Sprintf("t ≈ %.3g·mkn + %.3g·(mk+kn+mn) + %.3g  (R²=%.4f)", mo.C3, mo.C2, mo.C0, mo.R2)
}

// Fit computes the least-squares model for the samples (at least 3
// distinct shapes required).
func Fit(samples []Sample) (Model, error) {
	if len(samples) < 3 {
		return Model{}, errors.New("perfmodel: need at least 3 samples")
	}
	rows := len(samples)
	design := matrix.NewDense(rows, 3)
	rhs := matrix.NewDense(rows, 1)
	for i, s := range samples {
		design.Set(i, 0, float64(s.M)*float64(s.K)*float64(s.N))
		design.Set(i, 1, float64(s.M)*float64(s.K)+float64(s.K)*float64(s.N)+float64(s.M)*float64(s.N))
		design.Set(i, 2, 1)
		rhs.Set(i, 0, s.Seconds)
	}
	f, err := qr.Factor(design, nil)
	if err != nil {
		return Model{}, err
	}
	x, err := f.LeastSquares(rhs)
	if err != nil {
		return Model{}, err
	}
	mo := Model{C3: x.At(0, 0), C2: x.At(1, 0), C0: x.At(2, 0)}

	// R² against the sample mean.
	var mean float64
	for _, s := range samples {
		mean += s.Seconds
	}
	mean /= float64(rows)
	var ssRes, ssTot float64
	for _, s := range samples {
		r := s.Seconds - mo.Predict(s.M, s.K, s.N)
		ssRes += r * r
		d := s.Seconds - mean
		ssTot += d * d
	}
	if ssTot > 0 {
		mo.R2 = 1 - ssRes/ssTot
	} else {
		mo.R2 = 1
	}
	return mo, nil
}

// collectRounds is how many times Collect times each sample.
const collectRounds = 5

// Collect times plain DGEMM and one-level DGEFMM on the given square orders
// and returns the samples for fitting each. At each order the two run back
// to back, on the same operands, in collectRounds interleaved rounds, and
// each sample keeps its fastest round: a burst of load from a co-running
// process lands on both alike instead of skewing one curve against the
// other.
func Collect(kern blas.Kernel, orders []int, seed int64) (gemm, oneLevel []Sample) {
	rng := rand.New(rand.NewSource(seed))
	cfg := &strassen.Config{Kernel: kern, Criterion: strassen.Always{}, MaxDepth: 1, Tracker: memtrack.New()}
	for _, m := range orders {
		a := matrix.NewRandom(m, m, rng)
		b := matrix.NewRandom(m, m, rng)
		c := matrix.NewDense(m, m)
		var tg, t1 float64
		for round := 0; round < collectRounds; round++ {
			g := bench.Seconds(func() {
				blas.DgemmKernel(kern, blas.NoTrans, blas.NoTrans, m, m, m, 1,
					a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
			})
			o := bench.Seconds(func() {
				strassen.DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1,
					a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
			})
			if round == 0 || g < tg {
				tg = g
			}
			if round == 0 || o < t1 {
				t1 = o
			}
		}
		gemm = append(gemm, Sample{M: m, K: m, N: m, Seconds: tg})
		oneLevel = append(oneLevel, Sample{M: m, K: m, N: m, Seconds: t1})
	}
	return gemm, oneLevel
}

// PredictSquareCrossover scans orders in [lo, hi] and returns the smallest
// order from which the oneLevel model stays at or below the gemm model —
// the model-predicted τ+1. Returns hi+1 if one level never wins.
func PredictSquareCrossover(gemm, oneLevel Model, lo, hi int) int {
	cross := hi + 1
	for m := hi; m >= lo; m-- {
		if oneLevel.Predict(m, m, m) <= gemm.Predict(m, m, m) {
			cross = m
		} else {
			break
		}
	}
	return cross
}

// StrassenOneLevelFromGemm derives a one-level cost model analytically from
// a DGEMM model: 7 half-size multiplies plus 15 half-size quadrant adds
// with per-word cost approximated by the fitted quadratic coefficient,
//
//	t₁(m) = 7·t(m/2) + 15·c₂·(m/2)².
//
// Comparing its crossover with a *directly fitted* one-level model measures
// how much of the crossover the pure model explains (the [14] exercise).
func StrassenOneLevelFromGemm(gemm Model) Model {
	// For square inputs: 7·t(m/2) + 15·c₂·(m/2)²
	//   = 7c₃·m³/8 + (7·3 + 15)·c₂·m²/4 + 7c₀ = (7/8)c₃·m³ + 9c₂·m² + 7c₀.
	// The model's quadratic feature is mk+kn+mn = 3m² for squares, so the
	// fitted-form coefficient is 9c₂/3 = 3c₂.
	return Model{
		C3: gemm.C3 * 7.0 / 8.0,
		C2: gemm.C2 * 3,
		C0: gemm.C0 * 7,
		R2: gemm.R2,
	}
}

// OpCountCrossover is the crossover the pure operation-count model
// predicts: the paper's m = 12 (recursion wins from 13).
func OpCountCrossover() int { return 13 }
