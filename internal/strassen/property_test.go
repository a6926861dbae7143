package strassen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// Property-based testing over randomly drawn shapes, strides, transposes,
// scalars, schedules and odd-dimension strategies: DGEFMM must agree with
// the reference multiply everywhere in its input space.

type fmmCase struct {
	M, N, K    uint8
	TA, TB     bool
	Sched      uint8
	Odd        uint8
	AlphaRaw   int8
	BetaRaw    int8
	Seed       int64
	PadA, PadB uint8
}

func (c fmmCase) dims() (m, n, k int) {
	return int(c.M%48) + 1, int(c.N%48) + 1, int(c.K%48) + 1
}

func TestQuickDGEFMMMatchesReference(t *testing.T) {
	f := func(tc fmmCase) bool {
		m, n, k := tc.dims()
		alpha := float64(tc.AlphaRaw)/16 + 0.25 // avoid alpha exactly 0 most of the time
		beta := float64(tc.BetaRaw) / 16
		sched := Schedule(tc.Sched % 4)
		odd := OddStrategy(tc.Odd % 3)
		rng := rand.New(rand.NewSource(tc.Seed))

		rowsA, colsA := m, k
		ta := blas.NoTrans
		if tc.TA {
			ta = blas.Trans
			rowsA, colsA = k, m
		}
		rowsB, colsB := k, n
		tb := blas.NoTrans
		if tc.TB {
			tb = blas.Trans
			rowsB, colsB = n, k
		}
		padA := int(tc.PadA % 3)
		padB := int(tc.PadB % 3)
		bigA := matrix.NewRandom(rowsA+padA, colsA, rng)
		bigB := matrix.NewRandom(rowsB+padB, colsB, rng)
		a := bigA.Slice(0, 0, rowsA, colsA)
		b := bigB.Slice(0, 0, rowsB, colsB)
		c := matrix.NewRandom(m, n, rng)

		want := refMul(ta, tb, alpha, a.Clone(), b.Clone(), beta, c.Clone())
		cfg := &Config{
			Kernel:    blas.NaiveKernel{},
			Criterion: Simple{Tau: 5},
			Schedule:  sched,
			Odd:       odd,
		}
		got := c.Clone()
		DGEFMM(cfg, ta, tb, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, got.Data, got.Stride)
		return matrix.MaxAbsDiff(got, want) <= tol(k)*(1+absf(alpha)+absf(beta))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// The distributive law must hold: A(B1+B2) ≈ AB1 + AB2 under DGEFMM.
func TestQuickDGEFMMDistributive(t *testing.T) {
	cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 6}}
	f := func(seed int64, mRaw, kRaw, nRaw uint8) bool {
		m, k, n := int(mRaw%24)+4, int(kRaw%24)+4, int(nRaw%24)+4
		rng := rand.New(rand.NewSource(seed))
		a := matrix.NewRandom(m, k, rng)
		b1 := matrix.NewRandom(k, n, rng)
		b2 := matrix.NewRandom(k, n, rng)
		bSum := matrix.NewDense(k, n)
		matrix.Lin(bSum, matrix.Term{G: 1, X: matrix.ViewOf(b1)}, matrix.Term{G: 1, X: matrix.ViewOf(b2)})

		prod := func(b *matrix.Dense) *matrix.Dense {
			c := matrix.NewDense(m, n)
			Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
			return c
		}
		lhs := prod(bSum)
		rhs := prod(b1)
		matrix.Lin(rhs, matrix.Term{G: 1, Dst: true}, matrix.Term{G: 1, X: matrix.ViewOf(prod(b2))})
		return matrix.MaxAbsDiff(lhs, rhs) <= tol(k)*10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Identity: A·I = A and I·A = A through the full recursion.
func TestQuickDGEFMMIdentity(t *testing.T) {
	cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 4}}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		a := matrix.NewRandom(n, n, rng)
		id := matrix.Identity(n)
		c := matrix.NewDense(n, n)
		Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1, a, id, 0)
		if matrix.MaxAbsDiff(c, a) > tol(n) {
			return false
		}
		Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1, id, a, 0)
		return matrix.MaxAbsDiff(c, a) <= tol(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Numerical stability sanity: the Strassen forward error on well-scaled
// inputs stays within the Brent/Higham-style growth envelope, far from
// catastrophic. (Higham 1990: Strassen's error bound has a larger constant
// than conventional multiply but is still O(n·u·‖A‖‖B‖) in practice for
// moderate recursion depth.)
func TestStrassenStabilityEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 16}}
	for _, n := range []int{64, 128, 256} {
		a := matrix.NewRandom(n, n, rng)
		b := matrix.NewRandom(n, n, rng)
		c := matrix.NewDense(n, n)
		Multiply(cfg, c, blas.NoTrans, blas.NoTrans, 1, a, b, 0)
		want := matrix.NewDense(n, n)
		blas.DgemmKernel(blas.NaiveKernel{}, blas.NoTrans, blas.NoTrans, n, n, n, 1,
			a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride)
		diff := matrix.MaxAbsDiff(c, want)
		// Envelope: u · n^(log2 12) · max|A| · max|B| is Higham's square-case
		// growth; use a generous multiple of n²·u as the practical cap.
		u := 2.22e-16
		cap := 100 * float64(n) * float64(n) * u * matrix.MaxAbs(a) * matrix.MaxAbs(b)
		if diff > cap {
			t.Errorf("n=%d: Strassen error %g exceeds stability envelope %g", n, diff, cap)
		}
	}
}
