package strassen

import (
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrack"
)

// TestLeafAllocs pins the heap allocations per call of multiplies whose
// work is base cases on the packed kernel: a call below the cutoff (one
// leaf), an odd STRASSEN2 level padded virtually, whose seven leaves
// overhang the matrices (clipped leaves), a peeled ⟨3,3,3⟩ level whose
// remainders of two run as base-case GEMMs, and a 1023³ fused2 node. A
// leaf enters the kernel as one product whose terms and destination come
// from a pool, so it allocates nothing of its own. The bounds are the
// counts measured on amd64; a rise is new garbage per call. The race
// detector's sync.Pool drops items at random, so the test does not run
// under it.
func TestLeafAllocs(t *testing.T) {
	skipIfAlgoPinned(t)
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cases := []struct {
		name  string
		cfg   Config
		n     int
		event string // a trace action the call must show
		most  float64
	}{
		{"below-cutoff", Config{}, 96, "base", 2},
		{"clipped-leaf", Config{Kernel: destLimitKernel{&kernel.Packed{}, 1}, Criterion: Simple{Tau: 60}, Fused: FusedOn}, 97, "strassen2", 38},
		{"peel-gemm", Config{Algo: "333", Criterion: Simple{Tau: 60}, Fused: FusedOff}, 101, "fixup-gemm-k", 114},
		{"fused2", Config{Fused: FusedOn}, 1023, "fused2", 19},
	}
	rng := rand.New(rand.NewSource(71))
	for _, tc := range cases {
		// fused2 runs where the tile writes four destinations natively.
		if tc.n > 512 && (testing.Short() || (&kernel.Packed{}).FusedDestLimit() < 4) {
			continue
		}
		cfg := tc.cfg
		cfg.Tracker = memtrack.New()
		n := tc.n
		a := matrix.NewRandom(n, n, rng)
		b := matrix.NewRandom(n, n, rng)
		c := matrix.NewDense(n, n)
		call := func() {
			DGEFMM(&cfg, blas.NoTrans, blas.NoTrans, n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0.5, c.Data, c.Stride)
		}
		ct := NewCountTracer()
		traced := cfg
		traced.Tracer = ct
		DGEFMM(&traced, blas.NoTrans, blas.NoTrans, n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0.5, c.Data, c.Stride)
		if ct.Count(tc.event) == 0 || (tc.name == "clipped-leaf" && ct.Count("peel") != 0) {
			t.Fatalf("%s: trace %s lacks %q (or peels)", tc.name, ct, tc.event)
		}
		call() // warm the arenas and pools
		got := testing.AllocsPerRun(5, call)
		t.Logf("%s: %.0f allocations per call", tc.name, got)
		if got > tc.most {
			t.Errorf("%s: %.1f allocations per call, want at most %.0f", tc.name, got, tc.most)
		}
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// destLimitKernel is the default packed kernel with a fused write-out
// limit of limit destinations: at 1 no level fuses, but odd levels still
// pad virtually, so their leaves overhang the matrices.
type destLimitKernel struct {
	*kernel.Packed
	limit int
}

func (k destLimitKernel) FusedDestLimit() int { return k.limit }
