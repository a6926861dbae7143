package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/memtrack"
)

// fill populates a column-major rows×cols matrix (leading dimension ld) with
// deterministic pseudo-random values, leaving any ld-rows padding untouched
// so differential tests also catch out-of-tile writes.
func fill(rng *rand.Rand, rows, cols, ld int) []float64 {
	m := make([]float64, ld*cols)
	for i := range m {
		m[i] = math.NaN() // padding canary; overwritten below for real elements
	}
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			m[j*ld+i] = rng.Float64()*2 - 1
		}
	}
	return m
}

// opDims returns the storage dims of A given op(A) is m×k.
func opDims(trans bool, m, k int) (rows, cols int) {
	if trans {
		return k, m
	}
	return m, k
}

func maxAbsDiff(t *testing.T, got, want []float64, rows, cols, ld int) float64 {
	t.Helper()
	var worst float64
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			d := math.Abs(got[j*ld+i] - want[j*ld+i])
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// checkPadding verifies the NaN canaries outside the rows×cols window
// survived: the kernel must never write past m even when ld > m.
func checkPadding(t *testing.T, c []float64, rows, cols, ld int) {
	t.Helper()
	for j := 0; j < cols; j++ {
		for i := rows; i < ld; i++ {
			if !math.IsNaN(c[j*ld+i]) {
				t.Fatalf("padding clobbered at (%d,%d)", i, j)
			}
		}
	}
}

var transposes = []blas.Transpose{blas.NoTrans, blas.Trans}

// TestDifferentialEdgeShapes runs the packed kernel against the naive oracle
// for every transpose/alpha/beta combination over all edge-remainder shapes
// relative to the MR×NR register tile: m, n ∈ {1..2·MR+1}, k ∈ {1..2·KC+1}
// scaled down via tiny block sizes so each shape exercises every loop level
// (jc/pc/ic block loops, panel edges, ragged micro-tiles).
func TestDifferentialEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Tiny blocks so even single-digit dims cross block boundaries.
	k := &Packed{MC: 2 * MR, KC: 3, NC: 2 * NR}
	oracle := blas.NaiveKernel{}

	dims := func(unit int) []int {
		var out []int
		for v := 1; v <= 2*unit+1; v++ {
			out = append(out, v)
		}
		return out
	}
	ks := []int{1, 2, 3, 4, 6, 7} // around KC=3: below, equal, above, 2·KC, 2·KC±1

	for _, ta := range transposes {
		for _, tb := range transposes {
			for _, alpha := range []float64{1, -0.5, 2.25} {
				for _, beta := range []float64{0, 1, -1.5} {
					for _, m := range dims(MR) {
						for _, n := range dims(NR) {
							for _, kk := range ks {
								ar, ac := opDims(ta.IsTrans(), m, kk)
								br, bc := opDims(tb.IsTrans(), kk, n)
								lda, ldb, ldc := ar+1, br, m+2
								a := fill(rng, ar, ac, lda)
								b := fill(rng, br, bc, ldb)
								c0 := fill(rng, m, n, ldc)
								got := append([]float64(nil), c0...)
								want := append([]float64(nil), c0...)
								blas.DgemmKernel(k, ta, tb, m, n, kk, alpha, a, lda, b, ldb, beta, got, ldc)
								blas.DgemmKernel(oracle, ta, tb, m, n, kk, alpha, a, lda, b, ldb, beta, want, ldc)
								tol := 1e-13 * float64(kk)
								if d := maxAbsDiff(t, got, want, m, n, ldc); d > tol {
									t.Fatalf("ta=%v tb=%v alpha=%g beta=%g m=%d n=%d k=%d: max diff %g",
										ta, tb, alpha, beta, m, n, kk, d)
								}
								checkPadding(t, got, m, n, ldc)
							}
						}
					}
				}
			}
		}
	}
}

// TestDifferentialLarge checks realistic leaf sizes (crossing the real
// default blocks, including ragged edges) against the oracle.
func TestDifferentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential in -short mode")
	}
	rng := rand.New(rand.NewSource(2))
	k := &Packed{}
	oracle := blas.NaiveKernel{}
	shapes := [][3]int{{64, 64, 64}, {129, 257, 300}, {100, 50, 311}, {257, 65, 129}}
	for _, ta := range transposes {
		for _, tb := range transposes {
			for _, s := range shapes {
				m, n, kk := s[0], s[1], s[2]
				ar, ac := opDims(ta.IsTrans(), m, kk)
				br, bc := opDims(tb.IsTrans(), kk, n)
				a := fill(rng, ar, ac, ar)
				b := fill(rng, br, bc, br)
				c0 := fill(rng, m, n, m)
				got := append([]float64(nil), c0...)
				want := append([]float64(nil), c0...)
				blas.DgemmKernel(k, ta, tb, m, n, kk, 1.25, a, ar, b, br, 0.5, got, m)
				blas.DgemmKernel(oracle, ta, tb, m, n, kk, 1.25, a, ar, b, br, 0.5, want, m)
				tol := 1e-12 * float64(kk)
				if d := maxAbsDiff(t, got, want, m, n, m); d > tol {
					t.Fatalf("ta=%v tb=%v %v: max diff %g", ta, tb, s, d)
				}
			}
		}
	}
}

// TestCompatBitwise verifies Compat mode reproduces blas.BlockedKernel
// bit for bit: with KC pinned to the legacy kernel's split, every C element
// sees the identical sequence of rounded operations.
func TestCompatBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	packed := &Packed{Compat: true}
	legacy := &blas.BlockedKernel{}
	shapes := [][3]int{{64, 64, 64}, {300, 300, 300}, {129, 257, 513}, {33, 7, 311}}
	for _, ta := range transposes {
		for _, tb := range transposes {
			for _, s := range shapes {
				m, n, kk := s[0], s[1], s[2]
				ar, ac := opDims(ta.IsTrans(), m, kk)
				br, bc := opDims(tb.IsTrans(), kk, n)
				a := fill(rng, ar, ac, ar)
				b := fill(rng, br, bc, br)
				c0 := fill(rng, m, n, m)
				got := append([]float64(nil), c0...)
				want := append([]float64(nil), c0...)
				blas.DgemmKernel(packed, ta, tb, m, n, kk, 1.5, a, ar, b, br, 1, got, m)
				blas.DgemmKernel(legacy, ta, tb, m, n, kk, 1.5, a, ar, b, br, 1, want, m)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("ta=%v tb=%v %v: bitwise mismatch at %d: %x vs %x",
							ta, tb, s, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
				onLayouts(t, fmt.Sprintf("compat ta=%v tb=%v %v", ta, tb, s), packed, m, n, kk, [][]float64{got}, func(k *Packed) [][]float64 {
					c := append([]float64(nil), c0...)
					blas.DgemmKernel(k, ta, tb, m, n, kk, 1.5, a, ar, b, br, 1, c, m)
					return [][]float64{c}
				})
			}
		}
	}
}

// TestLeafWorkspaceExact asserts the closed-form LeafWorkspace bound equals
// the measured arena peak — the property strassen.PlanFor relies on when it
// reports Plan.KernelWords.
func TestLeafWorkspaceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := [][3]int{{1, 1, 1}, {7, 5, 3}, {64, 64, 64}, {130, 70, 90}, {300, 300, 300}}
	for _, s := range shapes {
		m, n, kk := s[0], s[1], s[2]
		k := &Packed{MC: 32, KC: 24, NC: 40}
		tr := memtrack.New()
		k.SetArena(tr)
		a := fill(rng, m, kk, m)
		b := fill(rng, kk, n, kk)
		c := make([]float64, m*n)
		k.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, c, m)
		if got, want := tr.Peak(), k.LeafWorkspace(m, n, kk); got != want {
			t.Errorf("%v: arena peak %d, LeafWorkspace %d", s, got, want)
		}
		if tr.Live() != 0 {
			t.Errorf("%v: %d words leaked", s, tr.Live())
		}
	}
}

// layoutTwins returns two kernels with k's tile and KC and NC — so every
// C element sees the same packed words, tiles and summation order as on
// k — whose MC splits an m-row call's rows into several MC blocks, where
// the sequential nest keeps the whole B̃ panel, and fits them in one,
// where it keeps one sliver. Rows of one register panel fit one block
// either way.
func layoutTwins(k *Packed, m int) [2]*Packed {
	mr := k.impl().mr
	return [2]*Packed{withMC(k, mr), withMC(k, roundUpMul(m, mr))}
}

// withMC is a kernel with k's tile, KC and NC, and the given MC.
func withMC(k *Packed, mc int) *Packed {
	_, kc, nc := k.blocks(k.impl())
	mode := k.Mode
	if k.Compat {
		mode = ModeScalar
	}
	return &Packed{Mode: mode, MC: mc, KC: kc, NC: nc}
}

// onLayouts runs call, an m×n×kk call that returns its outputs, on both
// of k's layoutTwins (onLayout).
func onLayouts(t *testing.T, what string, k *Packed, m, n, kk int, want [][]float64, call func(*Packed) [][]float64) {
	t.Helper()
	for _, tk := range layoutTwins(k, m) {
		onLayout(t, what, tk, m, n, kk, want, call)
	}
}

// onLayout runs call on tk (onRun) and requires the arena to peak at
// exactly LeafWorkspace.
func onLayout(t *testing.T, what string, tk *Packed, m, n, kk int, want [][]float64, call func(*Packed) [][]float64) {
	t.Helper()
	onRun(t, what, tk, tk.LeafWorkspace(m, n, kk), want, call)
}

// onRun runs call on tk with its own arena and fails t unless every output
// word equals want's bit for bit and the arena peaks at exactly peak.
func onRun(t *testing.T, what string, tk *Packed, peak int64, want [][]float64, call func(*Packed) [][]float64) {
	t.Helper()
	arena := memtrack.New()
	tk.SetArena(arena)
	got := call(tk)
	for d := range want {
		for j, w := range want[d] {
			if g := got[d][j]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s, MC=%d: output %d word %d is %x, want %x", what, tk.MC, d, j, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
	if p := arena.Peak(); p != peak {
		t.Fatalf("%s, MC=%d: arena peak %d, want %d", what, tk.MC, p, peak)
	}
}

// TestZeroAllocSteadyState: after warm-up the arena free list satisfies
// every packing draw, so MulAdd and FusedMulAdd perform no heap
// allocation — on ragged shapes too, whose edge tiles capture the register
// tile in a stack buffer.
func TestZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k := &Packed{}
	for _, n := range []int{96, 95} {
		a := fill(rng, n, n, n)
		b := fill(rng, n, n, n)
		c := make([]float64, n*n)
		aOp := Operand{Ld: n, Terms: []Term{{Data: a, Coeff: 1, Rows: n, Cols: n}, {Data: b, Coeff: -1, Rows: n, Cols: n}}}
		bOp := Operand{Ld: n, Terms: []Term{{Data: b, Coeff: 1, Rows: n, Cols: n}}}
		dests := []Dest{{Data: c, Ld: n, Coeff: 1, Rows: n, Cols: n}}
		for name, call := range map[string]func(){
			"MulAdd":      func() { k.MulAdd(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, c, n) },
			"FusedMulAdd": func() { k.FusedMulAdd(n, n, n, 1, aOp, bOp, dests) },
		} {
			call() // warm the free list
			if avg := testing.AllocsPerRun(10, call); avg != 0 {
				t.Fatalf("n=%d: packed %s allocates %.1f objects/op in steady state, want 0", n, name, avg)
			}
		}
	}
}

// TestConcurrentMulAdd drives one shared *Packed from several goroutines
// (run under -race in CI): per-call arena draws must make sharing safe.
func TestConcurrentMulAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k := &Packed{MC: 16, KC: 12, NC: 16}
	oracle := blas.NaiveKernel{}
	const workers = 4
	n := 48
	a := fill(rng, n, n, n)
	b := fill(rng, n, n, n)
	want := make([]float64, n*n)
	blas.DgemmKernel(oracle, blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, want, n)

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := make([]float64, n*n)
			for iter := 0; iter < 8; iter++ {
				for i := range c {
					c[i] = 0
				}
				k.MulAdd(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, c, n)
				for i := range c {
					if math.Abs(c[i]-want[i]) > 1e-11 {
						errs[w] = fmt.Errorf("worker %d iter %d: mismatch at %d", w, iter, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if live := k.Arena().Live(); live != 0 {
		t.Fatalf("%d words live after concurrent runs", live)
	}
}

// TestCloneIndependence: clones share tuning but own distinct arenas.
func TestCloneIndependence(t *testing.T) {
	k := &Packed{MC: 16, KC: 12, NC: 16, Compat: true}
	ck, ok := k.Clone().(*Packed)
	if !ok {
		t.Fatal("Clone did not return *Packed")
	}
	if ck.MC != k.MC || ck.KC != k.KC || ck.NC != k.NC || ck.Compat != k.Compat {
		t.Fatal("Clone dropped tuning")
	}
	if ck.Arena() == k.Arena() {
		t.Fatal("Clone shares the parent's arena")
	}
}

func TestRegisteredWithBlas(t *testing.T) {
	if blas.KernelByName("packed") == nil {
		t.Fatal(`blas.KernelByName("packed") = nil; init registration missing`)
	}
	// The scalar-pinned kernel owns the "packed" name regardless of host.
	if pk, ok := blas.KernelByName("packed").(*Packed); !ok || pk.ISA() != "scalar" {
		t.Fatalf(`KernelByName("packed") is not the scalar-pinned kernel`)
	}
	names := blas.KernelNames()
	if len(names) == 0 {
		t.Fatal("KernelNames() empty")
	}
	// "simd" registers exactly when dispatch resolves it: the host has the
	// extension AND DGEFMM_KERNEL does not pin another path. Keying on the
	// effective state (not HasSIMD alone) keeps this test meaningful under
	// the CI fallback leg's DGEFMM_KERNEL=packed.
	env := envKernel()
	wantSIMD := HasSIMD() && (env == "" || env == "auto" || env == "simd")
	if wantSIMD {
		// SIMD hosts lead reports with the dispatched kernel.
		if names[0] != "simd" {
			t.Fatalf("KernelNames() = %v, want simd first on a SIMD host", names)
		}
		if blas.KernelByName("simd") == nil {
			t.Fatal(`blas.KernelByName("simd") = nil on a SIMD host`)
		}
	} else {
		if names[0] != "packed" {
			t.Fatalf("KernelNames() = %v, want packed first when dispatching scalar (env=%q)", names, env)
		}
		if blas.KernelByName("simd") != nil {
			t.Fatalf(`blas.KernelByName("simd") registered while dispatch is pinned scalar (env=%q)`, env)
		}
	}
}

func TestDeriveBlocks(t *testing.T) {
	cases := []struct {
		c       Caches
		mc, kc  int
		ncFloor int
	}{
		// Development host: Xeon with 48K L1d, 2M L2, large L3.
		{Caches{L1D: 48 << 10, L2: 2 << 20, L3: 256 << 20}, 256, 256, 4096},
		// Fallback geometry.
		{fallbackCaches, 256, 256, 512},
	}
	for _, tc := range cases {
		mc, kc, nc := DeriveBlocks(tc.c)
		if mc != tc.mc || kc != tc.kc {
			t.Errorf("DeriveBlocks(%+v) = mc=%d kc=%d, want mc=%d kc=%d", tc.c, mc, kc, tc.mc, tc.kc)
		}
		if nc < tc.ncFloor || nc%NR != 0 {
			t.Errorf("DeriveBlocks(%+v) nc=%d, want ≥%d and a multiple of %d", tc.c, nc, tc.ncFloor, NR)
		}
		if mc%MR != 0 {
			t.Errorf("mc=%d not a multiple of MR", mc)
		}
	}
}

func TestParseCacheSize(t *testing.T) {
	cases := map[string]int64{
		"48K": 48 << 10, "2048K": 2048 << 10, "16M": 16 << 20,
		"1G": 1 << 30, "512": 512, "bogus": 0, "": 0,
	}
	for in, want := range cases {
		if got := parseCacheSize(in); got != want {
			t.Errorf("parseCacheSize(%q) = %d, want %d", in, got, want)
		}
	}
}
