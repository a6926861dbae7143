package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/phase"
)

// opts are the run parameters every workload takes.
type opts struct {
	seed   int64
	dur    time.Duration
	traced bool
}

var workloads = map[string]func(opts) (*report, error){
	"square_b0":  func(o opts) (*report, error) { return runMatrix(squareB0, o) },
	"odd_update": func(o opts) (*report, error) { return runMatrix(oddUpdate, o) },
	"par_square": func(o opts) (*report, error) { return runMatrix(parSquare, o) },
	"serve_mix":  func(o opts) (*report, error) { return runServe(serveMix, o) },
}

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names; TestNamesMatchBenchmarkJSON keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd holds only metrics that cancel or do not see the host's speed:
// absolute call times drift by tens of percent within minutes on a shared
// host, so they are the unbounded wall.* metrics of the traced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"speedup_vs_dgemm", "ratio"},
	{"workspace_mb", "MB"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"wall.gflops", "GFLOP/s"},
	{"wall.p50_ms", "ms"},
	{"wall.p90_ms", "ms"},
	{"kernel.micro.gflops", "GFLOP/s"},
	{"kernel.micro.share", "ratio"},
	{"kernel.fringe.share", "ratio"},
	{"kernel.simd_tile_ratio", "ratio"},
	{"kernel.pack.share", "ratio"},
	{"kernel.pack.gbps", "GB/s"},
	{"kernel.fused_pack.share", "ratio"},
	{"kernel.fused_writeout.share", "ratio"},
	{"strassen.addsub.share", "ratio"},
	{"strassen.addsub.gbps", "GB/s"},
	{"strassen.quadrant.share", "ratio"},
	{"strassen.quadrant.gbps", "GB/s"},
	{"strassen.peel.share", "ratio"},
	{"strassen.depth", "count"},
	{"strassen.nodes_per_call", "count"},
	{"strassen.flop_ratio", "ratio"},
	{"strassen.err_ratio", "ratio"},
	{"arena.peak_mwords", "Mwords"},
	{"arena.plan_ratio", "ratio"},
	{"arena.draw.share", "ratio"},
	{"sched.idle_ratio", "ratio"},
	{"sched.task_run.share", "ratio"},
	{"sched.steals_per_call", "count"},
	{"sched.tasks_per_call", "count"},
	{"sched.max_running", "count"},
	{"sched.parallel_speedup", "ratio"},
	{"batch.queue_wait_ms", "ms"},
	{"batch.arena_reuse_ratio", "ratio"},
	{"batch.buckets", "count"},
	{"serve.coalesce_ratio", "ratio"},
	{"serve.server_p50_ms", "ms"},
	{"serve.server_p90_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.rejected_ratio", "ratio"},
	{"serve.gen_late_p99_ms", "ms"},
	{"obs.residual.ratio", "ratio"},
	{"trace.overhead.ratio", "ratio"},
}

func main() {
	workload := flag.String("workload", "", "workload to run: square_b0, odd_update, par_square or serve_mix")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics and trace files")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "where the traced pass writes its files")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	r, err := run(opts{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1})
	if err != nil {
		fatal(err)
	}
	if *trace == 1 {
		if err := r.writeTrace(*traceDir, *workload); err != nil {
			fatal(err)
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			fatal(err)
		}
		r.set("rss_peak_mb", rss)
	}
	if err := r.print(os.Stdout, *trace == 1); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	wrong             int // results that failed their check (a subset of failed)
	digest            string
	values            map[string]float64
	notes             []string

	// Traced runs only.
	spans  *obs.SpanRecorder
	phases []phase.Stat
}

func newReport(digest string) *report {
	return &report{digest: digest, values: map[string]float64{}}
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

func (r *report) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: undefined metric " + name)
	}
	r.values[name] = v
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes the digest, every metric as "name value unit", and the
// JSON result as the last line: the end-to-end metrics, each of which must
// have been measured, or on a traced run the per-layer metrics, which read
// 0 where the workload does not reach the layer.
func (r *report) print(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# inputs sha256 %s\n", r.digest)
	for _, n := range r.notes {
		fmt.Fprintf(bw, "# note: %s\n", n)
	}
	res := resultJSON{Correct: r.wrong == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v := r.values[d.name]
		if !traced && !(v > 0) {
			return fmt.Errorf("end-to-end metric %s was not measured (got %v)", d.name, v)
		}
		fmt.Fprintf(bw, "%s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// writeTrace writes the traced run's Chrome trace and layer metrics.
func (r *report) writeTrace(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := r.spans.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	layers := struct {
		Workload string             `json:"workload"`
		Metrics  map[string]float64 `json:"metrics"`
		Phases   []phase.Stat       `json:"phases"`
	}{workload, map[string]float64{}, r.phases}
	for _, d := range perLayer {
		layers.Metrics[d.name] = r.values[d.name]
	}
	b, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".layers.json"), append(b, '\n'), 0o644)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// gen draws every input of a run from its seed and hashes what it draws.
type gen struct {
	rng *rand.Rand
	h   hash.Hash
}

func newGen(seed int64) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed)), h: sha256.New()}
}

// matrix returns n values uniform in [−1, 1).
func (g *gen) matrix(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = g.rng.Float64()*2 - 1
	}
	g.hash(v)
	return v
}

func (g *gen) hash(data any) {
	_ = binary.Write(g.h, binary.LittleEndian, data) // hash.Hash writes never fail
}

func (g *gen) digest() string { return fmt.Sprintf("%x", g.h.Sum(nil)) }
