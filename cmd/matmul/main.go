// Command matmul is the end-user face of the library: it multiplies two
// matrices (from whitespace-text files, or randomly generated) with DGEFMM
// and reports timing and a recursion trace. It is what "replacing DGEMM
// with our routine" looks like as a tool.
//
// Usage:
//
//	matmul -a a.txt -b b.txt -out c.txt          # C = A·B from files
//	matmul -random 1200 -engine both             # compare engines
//	matmul -random 999 -trace                    # see peeling in action
//	matmul -a a.txt -b b.txt -ta                 # C = Aᵀ·B
//	matmul -random 2048 -trace-out t.json        # timed recursion tree (Perfetto)
//
// Engines: dgefmm (default), dgemm, both (times the two and checks
// agreement). Kernels: auto (default: SIMD when the CPU has it, scalar
// packed otherwise), simd, packed, blocked, vector, naive.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/blas"
	"repro/internal/cli"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/strassen"
)

func main() {
	var (
		aPath      = flag.String("a", "", "left operand file (text rows)")
		bPath      = flag.String("b", "", "right operand file")
		outPath    = flag.String("out", "", "output file (omit to skip writing)")
		random     = flag.Int("random", 0, "generate random square operands of this order instead of reading files")
		seed       = flag.Int64("seed", 1, "seed for -random")
		engine     = flag.String("engine", "dgefmm", "dgefmm | dgemm | both")
		kernelName = flag.String("kernel", "auto", "auto | simd | packed | blocked | vector | naive")
		ta         = flag.Bool("ta", false, "use Aᵀ")
		tb         = flag.Bool("tb", false, "use Bᵀ")
		alpha      = flag.Float64("alpha", 1, "alpha scalar")
		trace      = flag.Bool("trace", false, "print a recursion trace summary")
		par        = flag.Int("parallel", 0, "run the recursion's products on a work-stealing runtime with this many workers")
		metricsOut = flag.String("metrics-out", "", "write a metrics snapshot (JSON) to this file when done")
		traceOut   = flag.String("trace-out", "", "write the recorded spans (Chrome trace-event JSON) to this file when done")
		httpAddr   = flag.String("http", "", "serve live expvar/pprof/metrics endpoints on this address (e.g. :6060)")
		fused      = cli.FusedFlag(nil)
		algoFlag   = cli.AlgoFlag(nil)
		logLevel   = cli.LogLevelFlag(nil)
	)
	flag.Parse()
	cli.InitLogging(*logLevel)

	var kern blas.Kernel
	if *kernelName == "auto" || *kernelName == "" {
		kern = kernel.Default()
	} else if kern = blas.KernelByName(*kernelName); kern == nil {
		fatalf("unknown kernel %q (have auto %s)", *kernelName, strings.Join(blas.KernelNames(), " "))
	}
	slog.Info("kernel selected", "name", kern.Name(), "isa", kernelISA(kern))

	var a, b *matrix.Dense
	switch {
	case *random > 0:
		rng := rand.New(rand.NewSource(*seed))
		a = matrix.NewRandom(*random, *random, rng)
		b = matrix.NewRandom(*random, *random, rng)
	case *aPath != "" && *bPath != "":
		a = mustRead(*aPath)
		b = mustRead(*bPath)
	default:
		fatalf("provide -a and -b files, or -random N")
	}

	m, k := a.Rows, a.Cols
	if *ta {
		m, k = k, m
	}
	kb, n := b.Rows, b.Cols
	if *tb {
		kb, n = n, kb
	}
	if kb != k {
		fatalf("inner dimensions mismatch: op(A) is %dx%d, op(B) is %dx%d", m, k, kb, n)
	}
	transA, transB := blas.NoTrans, blas.NoTrans
	if *ta {
		transA = blas.Trans
	}
	if *tb {
		transB = blas.Trans
	}

	cfg := strassen.DefaultConfig(kern)
	fusedMode, err := strassen.ParseFusedMode(*fused)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Fused = fusedMode
	slog.Info("fused winograd", "mode", fusedMode, "active", cfg.FusedActive())
	// -algo keeps its raw spelling: "" defers to DGEFMM_ALGO, an explicit
	// "default" beats it (the PR 5 precedence, as with -kernel and -fused).
	if _, err := strassen.ParseAlgo(*algoFlag); err != nil {
		fatalf("%v", err)
	}
	cfg.Algo = *algoFlag
	slog.Info("fast algorithm", "selection", cfg.AlgoSelection())
	if *par > 1 {
		rt := sched.New(*par, 1)
		defer rt.Close()
		cfg.Sched = rt
	}
	var tracer *strassen.CountTracer
	if *trace {
		tracer = strassen.NewCountTracer()
		cfg.Tracer = tracer
	}
	var col *obs.Collector
	if *metricsOut != "" || *traceOut != "" || *httpAddr != "" {
		col = obs.NewCollector()
		col.Attach(cfg) // composes with the -trace CountTracer if both are set
		restore := col.EnablePhases()
		defer restore()
	}
	if *httpAddr != "" {
		_, bound, err := obs.StartDebugServer(*httpAddr, col)
		if err != nil {
			fatalf("start debug server on %s: %v", *httpAddr, err)
		}
		slog.Info("observability endpoints up", "url", "http://"+bound,
			"paths", "/metrics /openmetrics /trace /spans /debug/vars /debug/pprof/")
	}

	runDgefmm := func() (*matrix.Dense, time.Duration) {
		c := matrix.NewDense(m, n)
		start := time.Now()
		strassen.DGEFMM(cfg, transA, transB, m, n, k, *alpha,
			a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		return c, time.Since(start)
	}
	runDgemm := func() (*matrix.Dense, time.Duration) {
		c := matrix.NewDense(m, n)
		start := time.Now()
		blas.DgemmKernel(kern, transA, transB, m, n, k, *alpha,
			a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		return c, time.Since(start)
	}

	var result *matrix.Dense
	switch *engine {
	case "dgefmm":
		c, d := runDgefmm()
		fmt.Printf("DGEFMM: %dx%d·%dx%d in %.1f ms (%.0f MFLOPS)\n", m, k, k, n,
			d.Seconds()*1e3, 2*float64(m)*float64(k)*float64(n)/d.Seconds()/1e6)
		result = c
	case "dgemm":
		c, d := runDgemm()
		fmt.Printf("DGEMM:  %dx%d·%dx%d in %.1f ms (%.0f MFLOPS)\n", m, k, k, n,
			d.Seconds()*1e3, 2*float64(m)*float64(k)*float64(n)/d.Seconds()/1e6)
		result = c
	case "both":
		c1, d1 := runDgemm()
		c2, d2 := runDgefmm()
		fmt.Printf("DGEMM:  %.1f ms\nDGEFMM: %.1f ms (%.2fx)\n",
			d1.Seconds()*1e3, d2.Seconds()*1e3, d1.Seconds()/d2.Seconds())
		diff := matrix.MaxAbsDiff(c1, c2)
		fmt.Printf("max |Δ| between engines: %.2e\n", diff)
		result = c2
	default:
		fatalf("unknown engine %q", *engine)
	}

	if tracer != nil {
		fmt.Printf("trace: %s\n", tracer)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("create %s: %v", *outPath, err)
		}
		defer f.Close()
		if err := matrix.WriteText(f, result); err != nil {
			fatalf("write %s: %v", *outPath, err)
		}
		fmt.Printf("wrote %dx%d result to %s\n", result.Rows, result.Cols, *outPath)
	}

	if col != nil {
		if *metricsOut != "" {
			if err := col.WriteMetricsFile(*metricsOut); err != nil {
				fatalf("write %s: %v", *metricsOut, err)
			}
			fmt.Printf("wrote metrics snapshot to %s\n", *metricsOut)
		}
		if *traceOut != "" {
			if err := col.WriteTraceFile(*traceOut); err != nil {
				fatalf("write %s: %v", *traceOut, err)
			}
			fmt.Printf("wrote Chrome trace to %s\n", *traceOut)
		}
	}
	if *httpAddr != "" {
		slog.Info("done; endpoints stay up until interrupt (Ctrl-C)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
}

func mustRead(path string) *matrix.Dense {
	f, err := os.Open(path)
	if err != nil {
		fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	m, err := matrix.ReadText(f)
	if err != nil {
		fatalf("parse %s: %v", path, err)
	}
	return m
}

// kernelISA reports the instruction set a kernel's inner loop runs on:
// the dispatched ISA for kernels that expose one, "go" for portable Go.
func kernelISA(k blas.Kernel) string {
	if ik, ok := k.(interface{ ISA() string }); ok {
		return ik.ISA()
	}
	return "go"
}

func fatalf(format string, args ...interface{}) {
	slog.Error(fmt.Sprintf(format, args...))
	os.Exit(2)
}
