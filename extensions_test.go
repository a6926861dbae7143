package repro

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// Tests of the public API for the extension features (DESIGN.md §7).

func TestPublicSolveLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 120
	a := NewRandomMatrix(n, n, rng)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	xTrue := NewRandomMatrix(n, 2, rng)
	b := NewMatrix(n, 2)
	DGEMM(NoTrans, NoTrans, n, 2, n, 1, a.Data, a.Stride, xTrue.Data, xTrue.Stride, 0, b.Data, b.Stride)
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		for i := 0; i < n; i++ {
			if d := math.Abs(x.At(i, j) - xTrue.At(i, j)); d > 1e-9 {
				t.Fatalf("solution error %g at (%d,%d)", d, i, j)
			}
		}
	}
}

func TestPublicFactorLUEngineChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 96
	a := NewRandomMatrix(n, n, rng)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	lu1, err := FactorLU(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	lu2, err := FactorLU(a, &LUOptions{Mul: StrassenEigenMultiplier{}, BlockSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if d := lu1.Det() - lu2.Det(); math.Abs(d) > 1e-3*math.Abs(lu1.Det()) {
		t.Fatalf("determinants differ across engines: %v vs %v", lu1.Det(), lu2.Det())
	}
}

func TestPublicZGEFMM(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 30
	a := NewZMatrix(n, n)
	b := NewZMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a.Set(i, j, complex(rng.Float64(), rng.Float64()))
			b.Set(i, j, complex(rng.Float64(), rng.Float64()))
		}
	}
	c1 := NewZMatrix(n, n)
	c2 := NewZMatrix(n, n)
	alpha := complex(1, -0.5)
	ZGEMM(ZNoTrans, ZConjTrans, n, n, n, alpha, a, b, 0, c1)
	ZGEFMM(nil, ZNoTrans, ZConjTrans, n, n, n, alpha, a, b, 0, c2)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			d := c1.At(i, j) - c2.At(i, j)
			if math.Hypot(real(d), imag(d)) > 1e-10 {
				t.Fatalf("complex mismatch at (%d,%d): %v", i, j, d)
			}
		}
	}
}

func TestPublicCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 60
	g := NewRandomMatrix(n, n, rng)
	a := NewMatrix(n, n)
	DGEMM(Trans, NoTrans, n, n, n, 1, g.Data, g.Stride, g.Data, g.Stride, 0, a.Data, a.Stride)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	ch, err := FactorCholesky(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := func() float64 {
		back := ch.Reconstruct()
		var worst float64
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if v := math.Abs(back.At(i, j) - a.At(i, j)); v > worst {
					worst = v
				}
			}
		}
		return worst
	}(); d > 1e-9 {
		t.Fatalf("Cholesky reconstruction off by %g", d)
	}
}

func TestPublicQRLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m, n := 50, 20
	a := NewRandomMatrix(m, n, rng)
	xTrue := NewRandomMatrix(n, 1, rng)
	b := NewMatrix(m, 1)
	DGEMM(NoTrans, NoTrans, m, 1, n, 1, a.Data, a.Stride, xTrue.Data, xTrue.Stride, 0, b.Data, b.Stride)
	f, err := FactorQR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.LeastSquares(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if d := math.Abs(x.At(i, 0) - xTrue.At(i, 0)); d > 1e-9 {
			t.Fatalf("LS solution error %g at %d", d, i)
		}
	}
}

func TestPublicFastLevel3(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	n, k := 40, 24
	a := NewRandomMatrix(n, k, rng)
	c1 := NewMatrix(n, n)
	c2 := NewMatrix(n, n)
	// Reference via DGEMM full product, compare lower triangle.
	DGEMM(NoTrans, Trans, n, n, k, 1, a.Data, a.Stride, a.Data, a.Stride, 0, c1.Data, c1.Stride)
	FastDsyrk('L', NoTrans, n, k, 1, a.Data, a.Stride, 0, c2.Data, c2.Stride)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if d := math.Abs(c1.At(i, j) - c2.At(i, j)); d > 1e-11 {
				t.Fatalf("FastDsyrk mismatch at (%d,%d): %g", i, j, d)
			}
		}
	}
	// FastDtrsm round trip: solve L·X = B after forming B = L·X.
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		l.Set(j, j, 2+rng.Float64())
		for i := j + 1; i < n; i++ {
			l.Set(i, j, rng.Float64())
		}
	}
	x := NewRandomMatrix(n, 3, rng)
	b := NewMatrix(n, 3)
	DGEMM(NoTrans, NoTrans, n, 3, n, 1, l.Data, l.Stride, x.Data, x.Stride, 0, b.Data, b.Stride)
	FastDtrsm('L', NoTrans, 'N', n, 3, 1, l.Data, l.Stride, b.Data, b.Stride)
	if !b.EqualApprox(x, 1e-9) {
		t.Fatal("FastDtrsm solve wrong")
	}
}

func TestPublicParallelConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := 128
	a := NewRandomMatrix(m, m, rng)
	b := NewRandomMatrix(m, m, rng)
	c1 := NewMatrix(m, m)
	c2 := NewMatrix(m, m)
	Multiply(nil, c1, NoTrans, NoTrans, 1, a, b, 0)
	cfg := DefaultConfig(nil)
	rt := sched.New(4, 1)
	defer rt.Close()
	cfg.Sched = rt
	cfg.SchedLevels = 2
	Multiply(cfg, c2, NoTrans, NoTrans, 1, a, b, 0)
	if !c1.EqualApprox(c2, 1e-10) {
		t.Fatal("parallel config changes the result")
	}
}
