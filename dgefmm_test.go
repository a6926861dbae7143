package repro

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stability"
	"repro/internal/strassen"
)

func TestPublicDGEFMMMatchesDGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{64, 64, 64}, {65, 33, 97}, {10, 200, 30}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := NewRandomMatrix(m, k, rng)
		b := NewRandomMatrix(k, n, rng)
		c1 := NewRandomMatrix(m, n, rng)
		c2 := c1.Clone()
		DGEMM(NoTrans, NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, 0.5, c1.Data, c1.Stride)
		cfg := DefaultConfig(KernelByName("naive"))
		cfg.Criterion = SimpleCriterion{Tau: 16}
		DGEFMM(cfg, NoTrans, NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, 0.5, c2.Data, c2.Stride)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if d := math.Abs(c1.At(i, j) - c2.At(i, j)); d > 1e-10 {
					t.Fatalf("dims=%v (%d,%d): |Δ|=%g", dims, i, j, d)
				}
			}
		}
	}
}

func TestPublicMultiplyConvenience(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewRandomMatrix(20, 30, rng)
	b := NewRandomMatrix(30, 10, rng)
	c := NewMatrix(20, 10)
	Multiply(nil, c, NoTrans, NoTrans, 2, a, b, 0)
	// Check one entry against a dot product.
	var want float64
	for l := 0; l < 30; l++ {
		want += a.At(3, l) * b.At(l, 7)
	}
	if d := math.Abs(c.At(3, 7) - 2*want); d > 1e-12 {
		t.Fatalf("entry mismatch: %g", d)
	}
}

func TestPublicBaselinesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := 40
	a := NewRandomMatrix(m, m, rng)
	b := NewRandomMatrix(m, m, rng)
	ref := NewMatrix(m, m)
	DGEMM(NoTrans, NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, ref.Data, ref.Stride)

	c := NewMatrix(m, m)
	DGEMMS(NoTrans, NoTrans, m, m, m, a.Data, a.Stride, b.Data, b.Stride, c.Data, c.Stride)
	if !c.EqualApprox(ref, 1e-10) {
		t.Fatal("DGEMMS disagrees")
	}
	c.Zero()
	SGEMMS(NoTrans, NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	if !c.EqualApprox(ref, 1e-10) {
		t.Fatal("SGEMMS disagrees")
	}
	c.Zero()
	DGEMMW(NoTrans, NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	if !c.EqualApprox(ref, 1e-10) {
		t.Fatal("DGEMMW disagrees")
	}
}

func TestPublicEigenSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewRandomSymmetric(40, rng)
	res, err := SolveSymmetric(a, &EigenOptions{BaseSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 40 || res.Vectors.Rows != 40 {
		t.Fatal("result shape")
	}
	for i := 1; i < len(res.Values); i++ {
		if res.Values[i] < res.Values[i-1] {
			t.Fatal("eigenvalues not sorted")
		}
	}
}

func TestPublicMemoryTrackerPlumbing(t *testing.T) {
	if sel := (&Config{}).AlgoSelection(); sel != "default" {
		t.Skipf("DGEFMM_ALGO pins %q; the 2m\u00b2/3 bound is the Winograd schedules'", sel)
	}
	rng := rand.New(rand.NewSource(5))
	tr := NewMemoryTracker()
	cfg := DefaultConfig(KernelByName("naive"))
	cfg.Criterion = SimpleCriterion{Tau: 8}
	cfg.Tracker = tr
	m := 64
	a := NewRandomMatrix(m, m, rng)
	b := NewRandomMatrix(m, m, rng)
	c := NewMatrix(m, m)
	DGEFMM(cfg, NoTrans, NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	if tr.Peak() == 0 {
		t.Fatal("tracker saw no allocations")
	}
	if tr.Peak() > int64(2*m*m/3) {
		t.Fatalf("peak %d exceeds the paper's 2m²/3 bound", tr.Peak())
	}
}

func TestSetDefaultParamsAffectsDefaultConfig(t *testing.T) {
	old := strassen.DefaultParams("vector")
	defer SetDefaultParams("vector", old)
	// The config is built first: the row is looked up when each call
	// starts, so later calibration reaches configs that already exist.
	cfg := DefaultConfig(KernelByName("vector"))
	const m = 64
	rng := rand.New(rand.NewSource(5))
	a, b, c := NewRandomMatrix(m, m, rng), NewRandomMatrix(m, m, rng), NewMatrix(m, m)
	multiply := func() int64 {
		cfg.Tracker = NewMemoryTracker()
		DGEFMM(cfg, NoTrans, NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		return cfg.Tracker.Peak()
	}
	SetDefaultParams("vector", Params{Tau: 16, TauM: 8, TauK: 8, TauN: 8})
	if multiply() == 0 {
		t.Fatal("τ=16 installed after DefaultConfig: m=64 did not recurse")
	}
	SetDefaultParams("vector", Params{Tau: 123, TauM: 1, TauK: 2, TauN: 3})
	if peak := multiply(); peak != 0 {
		t.Fatalf("τ=123 installed after DefaultConfig: m=64 recursed (workspace peak %d)", peak)
	}
}

func TestPublicBatchedMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultConfig(KernelByName("naive"))
	cfg.Criterion = SimpleCriterion{Tau: 8}
	var calls []BatchCall
	var got, want []*Matrix
	for _, dims := range [][3]int{{48, 48, 48}, {65, 33, 97}, {48, 48, 48}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := NewRandomMatrix(m, k, rng)
		b := NewRandomMatrix(k, n, rng)
		c0 := NewRandomMatrix(m, n, rng)
		cb, cs := c0.Clone(), c0.Clone()
		calls = append(calls, NewBatchCall(cb, NoTrans, NoTrans, 1.5, a, b, 0.5))
		Multiply(cfg, cs, NoTrans, NoTrans, 1.5, a, b, 0.5)
		got, want = append(got, cb), append(want, cs)
	}
	if err := BatchedMultiply(cfg, calls); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for j := 0; j < got[i].Cols; j++ {
			for r := 0; r < got[i].Rows; r++ {
				if got[i].At(r, j) != want[i].At(r, j) {
					t.Fatalf("call %d: batched result differs from Multiply at (%d,%d)", i, r, j)
				}
			}
		}
	}

	// The persistent-pool form with stats.
	pool := NewBatchPool(&BatchOptions{Workers: 2, Config: cfg})
	defer pool.Close()
	if err := pool.Execute(calls); err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Calls != int64(len(calls)) || s.Workers != 2 || s.Buckets == 0 {
		t.Fatalf("unexpected pool stats: %+v", s)
	}
}

func TestKernelByNameUnknown(t *testing.T) {
	if KernelByName("no-such-kernel") != nil {
		t.Fatal("unknown kernel should be nil")
	}
	for _, name := range []string{"packed", "blocked", "vector", "naive"} {
		if KernelByName(name) == nil {
			t.Fatalf("kernel %q missing", name)
		}
	}
}

// TestPackedKernelCompatMatchesDGEMM pins the public compat contract: a
// DGEFMM run below the cutoff on PackedKernel(true) is bit-for-bit the
// DGEMM result.
func TestPackedKernelCompatMatchesDGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 63 // below every cutoff → one base-case kernel call
	a := NewRandomMatrix(n, n, rng)
	b := NewRandomMatrix(n, n, rng)
	want := NewMatrix(n, n)
	got := NewMatrix(n, n)
	DGEMM(NoTrans, NoTrans, n, n, n, 1.5, a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride)
	cfg := DefaultConfig(PackedKernel(true))
	DGEFMM(cfg, NoTrans, NoTrans, n, n, n, 1.5, a.Data, a.Stride, b.Data, b.Stride, 0, got.Data, got.Stride)
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("element %d: %v != %v (compat mode must be bit-identical)", i, got.Data[i], want.Data[i])
		}
	}
}

// fuzzScalar folds an arbitrary fuzzed float64 into a well-behaved scalar in
// [-2, 2] (NaN/Inf become 1) so α/β stress the accumulation paths without
// making the error bound vacuous.
func fuzzScalar(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Remainder(x, 4)
}

// fuzzOracle is the naive O(mnk) reference for C ← α·op(A)·op(B) + β·C₀.
func fuzzOracle(transA, transB Transpose, alpha float64, a, b *Matrix, beta float64, c0 *Matrix) *Matrix {
	m, n := c0.Rows, c0.Cols
	k := a.Cols
	if transA == Trans {
		k = a.Rows
	}
	opA := func(i, l int) float64 {
		if transA == Trans {
			return a.At(l, i)
		}
		return a.At(i, l)
	}
	opB := func(l, j int) float64 {
		if transB == Trans {
			return b.At(j, l)
		}
		return b.At(l, j)
	}
	out := NewMatrix(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var sum float64
			for l := 0; l < k; l++ {
				sum += opA(i, l) * opB(l, j)
			}
			out.Set(i, j, alpha*sum+beta*c0.At(i, j))
		}
	}
	return out
}

// FuzzDGEFMM is the differential fuzz harness for the headline export: for
// arbitrary (including odd and rectangular) shapes, all four op(A)/op(B)
// combinations and random α/β, DGEFMM must stay within the Brent/Higham
// forward-error bound of the naive triple-loop oracle. The seed corpus in
// testdata/fuzz/FuzzDGEFMM pins odd sizes, transposes and β ≠ 0.
func FuzzDGEFMM(f *testing.F) {
	f.Add(int64(1), byte(31), byte(31), byte(31), false, false, 1.0, 0.0)
	f.Add(int64(2), byte(64), byte(16), byte(40), true, false, -1.5, 0.5)
	f.Add(int64(3), byte(9), byte(63), byte(27), false, true, 2.0, -1.0)
	f.Add(int64(4), byte(33), byte(33), byte(33), true, true, 0.5, 1.0)
	f.Add(int64(5), byte(1), byte(7), byte(2), false, false, 3.0, 0.25)
	f.Fuzz(func(t *testing.T, seed int64, mb, nb, kb byte, ta, tb bool, alpha, beta float64) {
		m, n, k := int(mb)%64+1, int(nb)%64+1, int(kb)%64+1
		alpha, beta = fuzzScalar(alpha), fuzzScalar(beta)
		transA, transB := NoTrans, NoTrans
		if ta {
			transA = Trans
		}
		if tb {
			transB = Trans
		}
		rng := rand.New(rand.NewSource(seed))
		rowsA, colsA := m, k
		if ta {
			rowsA, colsA = k, m
		}
		rowsB, colsB := k, n
		if tb {
			rowsB, colsB = n, k
		}
		a := NewRandomMatrix(rowsA, colsA, rng)
		b := NewRandomMatrix(rowsB, colsB, rng)
		c0 := NewRandomMatrix(m, n, rng)
		want := fuzzOracle(transA, transB, alpha, a, b, beta, c0)

		cfg := DefaultConfig(KernelByName("naive"))
		cfg.Criterion = SimpleCriterion{Tau: 8}
		c := c0.Clone()
		DGEFMM(cfg, transA, transB, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)

		// Recursion depth under Simple{Tau: 8}: halve until a dimension hits τ.
		depth := 0
		for mm, kk, nn := m, k, n; mm > 8 && kk > 8 && nn > 8; depth++ {
			mm, kk, nn = mm/2, kk/2, nn/2
		}
		// Higham §23.2.2: error grows like 6^d·k·u·‖A‖‖B‖; entries are in
		// [-1, 1) and α, β in [-2, 2], so scale by the scalars and allow a
		// generous constant — real bugs produce O(1) errors, not O(100u).
		tol := stability.Unit * stability.HighamGrowth(depth) * float64(k+8) *
			(math.Abs(alpha) + math.Abs(beta) + 1) * 64
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if d := math.Abs(c.At(i, j) - want.At(i, j)); !(d <= tol) {
					t.Fatalf("m=%d n=%d k=%d ta=%v tb=%v α=%g β=%g: |Δ|=%g at (%d,%d) exceeds bound %g",
						m, n, k, ta, tb, alpha, beta, d, i, j, tol)
				}
			}
		}
	})
}
