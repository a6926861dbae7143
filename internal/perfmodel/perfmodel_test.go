package perfmodel

import (
	"math"
	"testing"

	"repro/internal/blas"
)

func synthSamples(mo Model, orders []int) []Sample {
	out := make([]Sample, 0, len(orders))
	for _, m := range orders {
		out = append(out, Sample{M: m, K: m, N: m, Seconds: mo.Predict(m, m, m)})
	}
	return out
}

func TestFitRecoversExactModel(t *testing.T) {
	truth := Model{C3: 2.5e-9, C2: 4e-8, C0: 1.2e-6}
	samples := synthSamples(truth, []int{16, 24, 32, 48, 64, 96, 128, 200})
	got, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got.C3-truth.C3) / truth.C3; rel > 1e-6 {
		t.Fatalf("C3 = %v, want %v", got.C3, truth.C3)
	}
	if rel := math.Abs(got.C2-truth.C2) / truth.C2; rel > 1e-6 {
		t.Fatalf("C2 = %v, want %v", got.C2, truth.C2)
	}
	if rel := math.Abs(got.C0-truth.C0) / truth.C0; rel > 1e-4 {
		t.Fatalf("C0 = %v, want %v", got.C0, truth.C0)
	}
	if got.R2 < 0.999999 {
		t.Fatalf("R² = %v on exact data", got.R2)
	}
}

func TestFitRectangularShapes(t *testing.T) {
	truth := Model{C3: 1e-9, C2: 5e-8, C0: 2e-6}
	var samples []Sample
	for _, d := range [][3]int{{10, 20, 30}, {50, 10, 70}, {80, 80, 20}, {33, 44, 55}, {100, 10, 10}, {25, 25, 25}} {
		samples = append(samples, Sample{M: d[0], K: d[1], N: d[2], Seconds: truth.Predict(d[0], d[1], d[2])})
	}
	got, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range [][3]int{{60, 60, 60}, {5, 200, 12}} {
		want := truth.Predict(d[0], d[1], d[2])
		if rel := math.Abs(got.Predict(d[0], d[1], d[2])-want) / want; rel > 1e-6 {
			t.Fatalf("prediction at %v off by %v", d, rel)
		}
	}
}

func TestFitRejectsTooFewSamples(t *testing.T) {
	if _, err := Fit([]Sample{{M: 2, K: 2, N: 2, Seconds: 1}}); err == nil {
		t.Fatal("want error for <3 samples")
	}
}

func TestPredictSquareCrossoverSynthetic(t *testing.T) {
	// gemm: pure cubic; oneLevel: 7/8 cubic + heavy quadratic. Crossover
	// where (1/8)c₃m³ = extra·3m² → m = 24·extra/c₃.
	gemm := Model{C3: 8e-9}
	one := Model{C3: 7e-9, C2: 1e-8} // wins when 1e-9·m³ > 3e-8·m² → m > 30
	cross := PredictSquareCrossover(gemm, one, 2, 500)
	if cross < 29 || cross > 32 {
		t.Fatalf("predicted crossover %d, want ≈ 30–31", cross)
	}
}

func TestPredictSquareCrossoverNeverWins(t *testing.T) {
	gemm := Model{C3: 1e-9}
	one := Model{C3: 2e-9}
	if got := PredictSquareCrossover(gemm, one, 2, 100); got != 101 {
		t.Fatalf("want hi+1 sentinel, got %d", got)
	}
}

func TestStrassenOneLevelFromGemmCrossover(t *testing.T) {
	// With a plausible compute/traffic ratio the derived one-level model
	// must give a crossover above the op-count 12 — the [14]/Section 3.4
	// point that real cutoffs exceed the op-count prediction.
	gemm := Model{C3: 1e-9, C2: 2e-9}
	one := StrassenOneLevelFromGemm(gemm)
	if one.C3 >= gemm.C3 {
		t.Fatal("one level must reduce the cubic coefficient by 7/8")
	}
	if one.C2 <= gemm.C2 {
		t.Fatal("one level must increase the quadratic (traffic) coefficient")
	}
	cross := PredictSquareCrossover(gemm, one, 2, 4096)
	if cross <= OpCountCrossover() {
		t.Fatalf("model crossover %d should exceed the op-count crossover %d", cross, OpCountCrossover())
	}
	// Analytic check: equality at (1/8)c₃m³ = 6c₂m² → m = 48c₂/c₃ = 96.
	if cross < 90 || cross > 103 {
		t.Fatalf("crossover %d, want ≈ 96", cross)
	}
}

func TestCollectAndFitEndToEnd(t *testing.T) {
	// Real measurements on the naive kernel: the fit must be sane
	// (positive cubic term, decent R²) and the predicted crossover finite.
	// Collect interleaves the two curves and keeps each sample's fastest
	// round, but a wall-clock sample set on a shared host can still be
	// garbage (GC pause, scheduler), so allow a few attempts — the
	// property under test is that clean measurements fit the model and
	// predict a crossover, not that the host never hiccups.
	kern := blas.NaiveKernel{}
	orders := []int{16, 24, 32, 48, 64, 80, 96}
	var gemm, one Model
	ok := false
	for attempt := int64(0); attempt < 3 && !ok; attempt++ {
		gemmS, oneS := Collect(kern, orders, 31+attempt)
		var err error
		if gemm, err = Fit(gemmS); err != nil {
			t.Fatal(err)
		}
		if one, err = Fit(oneS); err != nil {
			t.Fatal(err)
		}
		ok = gemm.C3 > 0 && gemm.R2 > 0.95 && one.C3 > 0 && PredictSquareCrossover(gemm, one, 8, 512) > 8
	}
	if !ok {
		t.Fatalf("no clean fit in 3 attempts: gemm %v, one-level %v", gemm, one)
	}
	cross := PredictSquareCrossover(gemm, one, 8, 512)
	if cross <= 8 {
		t.Fatalf("degenerate predicted crossover %d", cross)
	}
	t.Logf("gemm: %v", gemm)
	t.Logf("one-level: %v", one)
	t.Logf("model-predicted crossover: %d (op-count predicts %d)", cross, OpCountCrossover())
}
