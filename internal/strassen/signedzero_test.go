package strassen

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// signedZeroPath pins C's bits on operands with zero blocks, where the
// golden sweep's random operands never produce an exact zero in C: one
// line per kernel, zero pattern, shape and (α, β), holding the SHA-256
// over that group's every path × fusion mode × runtime, in order.
const signedZeroPath = "testdata/signed_zero.txt"

// zeroPatterns zero whole row or column blocks of A and B, so the matching
// blocks of α·A·B are sums of zero products whose sign depends on how the
// operand sums, temporaries and write-backs round ±0. Each pattern mixes
// +0 and −0 blocks.
var zeroPatterns = []struct {
	name string
	// zero reports the value of A(i, j) (a) or B(i, j) (b) of an m×k, k×n
	// problem, or ok = false where the random value stays.
	zero func(isA bool, i, j, rows, cols int) (v float64, ok bool)
}{
	{"a-top-rows", func(isA bool, i, j, rows, cols int) (float64, bool) {
		if !isA || i >= rows/2 {
			return 0, false
		}
		return zeroSign(j < cols/2), true
	}},
	{"b-left-cols", func(isA bool, i, j, rows, cols int) (float64, bool) {
		if isA || j >= cols/2 {
			return 0, false
		}
		return zeroSign(i >= rows/2), true
	}},
	{"a11-b11", func(isA bool, i, j, rows, cols int) (float64, bool) {
		if i >= rows/2 || j >= cols/2 {
			return 0, false
		}
		return zeroSign(isA), true
	}},
	{"a-top-b-left", func(isA bool, i, j, rows, cols int) (float64, bool) {
		if (isA && i < rows/2) || (!isA && j < cols/2) {
			return zeroSign((i+j)%3 == 0), true
		}
		return 0, false
	}},
}

func zeroSign(neg bool) float64 {
	if neg {
		return math.Copysign(0, -1)
	}
	return 0
}

// signedZeroLines runs the signed-zero sweep and returns its lines in a
// fixed order.
func signedZeroLines() []string {
	w1 := sched.New(1, 1)
	w2 := sched.New(2, 1)
	defer w1.Close()
	defer w2.Close()
	runtimes := []*sched.Runtime{nil, w1, w2}
	kernels := []struct {
		name string
		make func() blas.Kernel
	}{
		{"compat", func() blas.Kernel { return &kernel.Packed{Compat: true} }},
		{"naive", func() blas.Kernel { return blas.NaiveKernel{} }},
	}
	shapes := [][3]int{{32, 32, 32}, {31, 31, 31}, {33, 17, 45}}
	coeffs := [][2]float64{{1, 0}, {-1, 0}, {-1.5, 1}}
	type pathCase struct {
		sched Schedule
		odd   OddStrategy
		algo  string
	}
	var paths []pathCase
	for _, s := range []Schedule{ScheduleAuto, ScheduleStrassen1, ScheduleStrassen2, ScheduleOriginal} {
		for _, o := range []OddStrategy{OddPeel, OddPadDynamic, OddPadStatic, OddPeelFirst} {
			paths = append(paths, pathCase{sched: s, odd: o, algo: "default"})
		}
	}
	for _, name := range AlgoNames() {
		paths = append(paths, pathCase{algo: name})
	}
	var lines []string
	for _, kc := range kernels {
		for _, zp := range zeroPatterns {
			for _, dims := range shapes {
				m, k, n := dims[0], dims[1], dims[2]
				rng := rand.New(rand.NewSource(int64(m*10000 + k*100 + n)))
				a := matrix.NewRandom(m, k, rng)
				b := matrix.NewRandom(k, n, rng)
				c0 := matrix.NewRandom(m, n, rng)
				for _, op := range []struct {
					d          *matrix.Dense
					isA        bool
					rows, cols int
				}{{a, true, m, k}, {b, false, k, n}} {
					for i := 0; i < op.rows; i++ {
						for j := 0; j < op.cols; j++ {
							if v, ok := zp.zero(op.isA, i, j, op.rows, op.cols); ok {
								op.d.Set(i, j, v)
							}
						}
					}
				}
				// C's zero-product blocks start as ±0 too, so β = 1
				// adds two signed zeros.
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						if (i+2*j)%5 < 2 {
							c0.Set(i, j, zeroSign((i+j)%2 == 0))
						}
					}
				}
				for _, ab := range coeffs {
					h := sha256.New()
					for _, pc := range paths {
						for _, fm := range []FusedMode{FusedOn, FusedOff} {
							for _, rt := range runtimes {
								cfg := &Config{
									Kernel:    kc.make(),
									Criterion: Simple{Tau: 8},
									Schedule:  pc.sched,
									Odd:       pc.odd,
									Algo:      pc.algo,
									Fused:     fm,
								}
								if rt != nil {
									cfg.Sched = rt
									cfg.SchedLevels = 2
								}
								c := c0.Clone()
								DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, ab[0],
									a.Data, a.Stride, b.Data, b.Stride, ab[1], c.Data, c.Stride)
								h.Write([]byte(bitsHash(c)))
							}
						}
					}
					lines = append(lines, fmt.Sprintf("%s/%s/%dx%dx%d/a=%g/b=%g %x",
						kc.name, zp.name, m, k, n, ab[0], ab[1], h.Sum(nil)))
				}
			}
		}
	}
	return lines
}

// TestSignedZeroOutputs pins C's bits where C holds exact zeros: every
// group of the signed-zero sweep must hash to its recorded line. Level
// temporaries are drawn uninitialized and written without reading their
// old contents, so the sign of a zero in C must not depend on what the
// workspace held. amd64 only, like TestGoldenOutputs.
func TestSignedZeroOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("signed-zero bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("signed-zero sweep skipped in -short mode")
	}
	f, err := os.Open(signedZeroPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := signedZeroLines()
	if len(got) != len(want) {
		t.Fatalf("sweep has %d groups, %s %d", len(got), signedZeroPath, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			key, _, _ := strings.Cut(got[i], " ")
			t.Errorf("%s: C bits differ from the recorded ones", key)
		}
	}
}
