package strassen

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
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
	"repro/internal/memtrack"
	"repro/internal/sched"
)

// goldenPath holds one line per configuration of goldenLines: the
// configuration key, the SHA-256 of C's bits after the multiply, the
// plan's Words, KernelWords and Depth, and the measured memtrack peak.
// On a multi-worker runtime a one-level tree's peak is the DAG level's
// buffers, drawn up front, and is recorded like any other; a deeper tree
// runs children concurrently, how many of them overlap depends on timing,
// and the line records "-" while the test asserts peak ≤ Plan.Words.
const goldenPath = "testdata/golden.txt"

// goldenLines runs every configuration of the golden sweep and returns
// its lines in a fixed order. Kernels are the bit-stable Compat packed
// kernel and the naive kernel; shapes are even, odd and rectangular;
// (α, β) cover β = 0, general β and β = 1; the default path runs every
// Schedule × OddStrategy, and every built-in table runs once; fusion is
// on or off; execution is sequential, a 1-worker or a 2-worker runtime.
func goldenLines(t *testing.T) []string {
	w1 := sched.New(1, 1)
	w2 := sched.New(2, 1)
	defer w1.Close()
	defer w2.Close()
	type runtimeCase struct {
		name string
		rt   *sched.Runtime
	}
	runtimes := []runtimeCase{{"seq", nil}, {"w1", w1}, {"w2", w2}}
	kernels := []struct {
		name string
		make func() blas.Kernel
	}{
		{"compat", func() blas.Kernel { return &kernel.Packed{Compat: true} }},
		{"naive", func() blas.Kernel { return blas.NaiveKernel{} }},
	}
	shapes := [][3]int{{32, 32, 32}, {31, 31, 31}, {33, 17, 45}}
	coeffs := [][2]float64{{1, 0}, {1.0 / 3, 0.25}, {-1.5, 1}}
	type pathCase struct {
		name  string
		sched Schedule
		odd   OddStrategy
		algo  string
	}
	var paths []pathCase
	for _, s := range []Schedule{ScheduleAuto, ScheduleStrassen1, ScheduleStrassen2, ScheduleOriginal} {
		for _, o := range []OddStrategy{OddPeel, OddPadDynamic, OddPadStatic, OddPeelFirst} {
			paths = append(paths, pathCase{name: s.String() + "/" + o.String(), sched: s, odd: o, algo: "default"})
		}
	}
	for _, name := range AlgoNames() {
		paths = append(paths, pathCase{name: "algo=" + name, algo: name})
	}

	var lines []string
	for _, kc := range kernels {
		for _, tau := range []int{4, 16} {
			for _, dims := range shapes {
				m, k, n := dims[0], dims[1], dims[2]
				rng := rand.New(rand.NewSource(int64(m*10000 + k*100 + n)))
				a := matrix.NewRandom(m, k, rng)
				b := matrix.NewRandom(k, n, rng)
				c0 := matrix.NewRandom(m, n, rng)
				for _, ab := range coeffs {
					for _, pc := range paths {
						for _, fm := range []FusedMode{FusedOn, FusedOff} {
							for _, rc := range runtimes {
								cfg := &Config{
									Kernel:    kc.make(),
									Criterion: Simple{Tau: tau},
									Schedule:  pc.sched,
									Odd:       pc.odd,
									Algo:      pc.algo,
									Fused:     fm,
								}
								if rc.rt != nil {
									cfg.Sched = rc.rt
									cfg.SchedLevels = 2
								}
								plan := PlanFor(cfg, m, n, k, ab[1] == 0)
								tr := memtrack.New()
								cfg.Tracker = tr
								c := c0.Clone()
								DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, ab[0],
									a.Data, a.Stride, b.Data, b.Stride, ab[1], c.Data, c.Stride)
								if live := tr.Live(); live != 0 {
									t.Fatalf("%s: %d workspace words leaked", pc.name, live)
								}
								peak := fmt.Sprint(tr.Peak())
								if rc.rt != nil && rc.rt.Workers() > 1 && plan.Depth > 1 {
									if tr.Peak() > plan.Words {
										t.Errorf("%s %s: peak %d > plan words %d", pc.name, rc.name, tr.Peak(), plan.Words)
									}
									peak = "-"
								} else if tr.Peak() != plan.Words {
									t.Errorf("%s %s: peak %d != plan words %d", pc.name, rc.name, tr.Peak(), plan.Words)
								}
								key := fmt.Sprintf("%s/tau=%d/%dx%dx%d/a=%g/b=%g/%s/fused=%v/%s",
									kc.name, tau, m, k, n, ab[0], ab[1], pc.name, fm, rc.name)
								lines = append(lines, fmt.Sprintf("%s %s %d %d %d %s",
									key, bitsHash(c), plan.Words, plan.KernelWords, plan.Depth, peak))
							}
						}
					}
				}
			}
		}
	}
	return lines
}

// bitsHash is the SHA-256 of a matrix's float64 bit patterns in
// column-major order.
func bitsHash(c *matrix.Dense) string {
	h := sha256.New()
	var buf [8]byte
	for j := 0; j < c.Cols; j++ {
		for i := 0; i < c.Rows; i++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.At(i, j)))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenOutputs pins the executor's observable behaviour across the
// golden sweep: C's bits, the plan's workspace and depth, and the measured
// workspace peak must match the recorded file line for line. amd64 only:
// other architectures may contract x*y+z into one FMA and round
// differently.
func TestGoldenOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, rest, _ := strings.Cut(sc.Text(), " ")
		want[key] = rest
		order = append(order, key)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines(t)
	if len(got) != len(order) {
		t.Errorf("sweep has %d configurations, golden file %d", len(got), len(order))
	}
	bad := 0
	for _, line := range got {
		key, rest, _ := strings.Cut(line, " ")
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("configuration %s missing from %s", key, goldenPath)
		case w != rest:
			t.Errorf("%s:\n  got  %s\n  want %s", key, rest, w)
		default:
			continue
		}
		if bad++; bad >= 20 {
			t.Fatal("too many golden mismatches")
		}
	}
}
