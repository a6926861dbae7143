// Command calibrate reruns the paper's Section 4.2 cutoff measurement on
// the current machine: the square crossover sweep (Figure 2 / Table 2) and
// the three rectangular sweeps with two dimensions held large (Table 3),
// for one or all DGEMM kernels. The output is the parameter set to feed to
// strassen.SetDefaultParams (or to hardcode as this machine's defaults).
//
// A second calibration mode, -blocks, tunes the packed kernel's cache
// blocking instead of the Strassen cutoff: it sweeps (MC, KC) around the
// cache-derived analytic seeds and prints the kernel.SetDefaultBlocks call
// that installs the winner.
//
// Usage:
//
//	calibrate                        # calibrate all kernels' cutoffs
//	calibrate -kernel packed -v      # one kernel, with the ratio curve
//	calibrate -sq-hi 512 -fixed 1024 # wider sweeps (slower, finer)
//	calibrate -blocks                # tune the packed kernel's MC/KC/NC
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/blas"
	"repro/internal/cli"
	"repro/internal/cutoff"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/strassen"
)

func main() {
	var (
		kernName   = flag.String("kernel", "", "kernel to calibrate (packed|blocked|vector|naive); empty = all")
		blocks     = flag.Bool("blocks", false, "tune the packed kernel's cache blocking instead of the cutoff")
		blockN     = flag.Int("block-n", 512, "-blocks: problem order timed per candidate")
		blockReps  = flag.Int("block-reps", 3, "-blocks: timing repetitions per candidate (best kept)")
		sqLo       = flag.Int("sq-lo", 16, "square sweep: low order")
		sqHi       = flag.Int("sq-hi", 256, "square sweep: high order")
		sqStep     = flag.Int("sq-step", 8, "square sweep: step")
		rectLo     = flag.Int("rect-lo", 8, "rectangular sweep: low value")
		rectHi     = flag.Int("rect-hi", 128, "rectangular sweep: high value")
		rectSt     = flag.Int("rect-step", 4, "rectangular sweep: step")
		fixed      = flag.Int("fixed", 512, "rectangular sweep: the two fixed (large) dimensions")
		coresFlag  = flag.String("cores", "", "comma-separated worker counts for the parallel crossover sweep (or \"auto\" = powers of two up to GOMAXPROCS); rows install under \"<kernel>@<cores>\"")
		seed       = flag.Int64("seed", 1, "RNG seed for the test matrices")
		verbose    = flag.Bool("v", false, "print the full square ratio curve (Figure 2 data)")
		metricsOut = flag.String("metrics-out", "", "write a metrics snapshot (JSON) to this file when done")
		httpAddr   = flag.String("http", "", "serve live expvar/pprof/metrics endpoints on this address (e.g. :6060)")
		fusedFlag  = cli.FusedFlag(nil)
		algoFlag   = cli.AlgoFlag(nil)
		logLevel   = cli.LogLevelFlag(nil)
	)
	flag.Parse()
	cli.InitLogging(*logLevel)

	fusedMode, err := strassen.ParseFusedMode(*fusedFlag)
	if err != nil {
		slog.Error("bad -fused", "err", err)
		os.Exit(2)
	}

	coreCounts, err := parseCores(*coresFlag)
	if err != nil {
		slog.Error("bad -cores", "err", err)
		os.Exit(2)
	}

	// The sweeps build their one-level configurations internally, so an
	// explicit -algo propagates through the DGEFMM_ALGO override; the
	// resulting parameters install under the "<kernel>/<algo>" key the
	// per-algorithm cutoff resolution reads.
	algoSel, err := strassen.ParseAlgo(*algoFlag)
	if err != nil {
		slog.Error("bad -algo", "err", err)
		os.Exit(2)
	}
	if algoSel != "" {
		os.Setenv("DGEFMM_ALGO", algoSel)
	}
	algoName := (&strassen.Config{Algo: *algoFlag}).AlgoSelection()
	slog.Info("fast algorithm", "selection", algoName)

	if *blocks {
		calibrateBlocks(*blockN, *blockReps, *seed)
		return
	}

	// The sweeps build their one-level configurations internally, so the
	// collector reaches them through the package's config hook. Note the
	// tracing instruments only the DGEFMM side of each timed pair, so the
	// measured ratios shift by the (small) tracing overhead — acceptable for
	// an opt-in diagnostic view of a calibration run.
	var col *obs.Collector
	if *metricsOut != "" || *httpAddr != "" {
		col = obs.NewCollector()
		cutoff.SetConfigHook(func(cfg *strassen.Config) { col.Attach(cfg) })
	}
	if *httpAddr != "" {
		_, bound, err := obs.StartDebugServer(*httpAddr, col)
		if err != nil {
			slog.Error("start debug server", "addr", *httpAddr, "err", err)
			os.Exit(1)
		}
		slog.Info("observability endpoints up", "url", "http://"+bound,
			"paths", "/metrics /openmetrics /debug/vars /debug/pprof/")
	}

	names := blas.KernelNames()
	if *kernName != "" {
		if blas.KernelByName(*kernName) == nil {
			slog.Error("unknown kernel", "kernel", *kernName, "known", blas.KernelNames())
			os.Exit(2)
		}
		names = []string{*kernName}
	}

	exitCode := 0
	for _, name := range names {
		kern := blas.KernelByName(name)
		fmt.Printf("kernel %s:\n", name)
		tau, pts := cutoff.SquareCutoff(kern, *sqLo, *sqHi, *sqStep, *seed)
		if *verbose {
			printCurve(pts, "DGEMM/DGEFMM(1 level)", "Strassen")
		}
		p := cutoff.RectParams(kern, *rectLo, *rectHi, *rectSt, *fixed, *seed+1)
		p.Tau = tau
		// Calibrating a non-default table installs its own τ row under
		// "<kernel>/<algo>" (auto calibrates whichever tables the sweep
		// shapes select, so it keeps the plain kernel key).
		paramsKey := name
		if algoName != "default" && algoName != strassen.AlgoAuto {
			paramsKey = name + "/" + algoName
		}
		if col != nil {
			col.Registry.Gauge("calibrate." + paramsKey + ".tau").Set(int64(p.Tau))
			col.Registry.Gauge("calibrate." + paramsKey + ".tau_m").Set(int64(p.TauM))
			col.Registry.Gauge("calibrate." + paramsKey + ".tau_k").Set(int64(p.TauK))
			col.Registry.Gauge("calibrate." + paramsKey + ".tau_n").Set(int64(p.TauN))
		}
		fmt.Printf("  measured: τ=%d τm=%d τk=%d τn=%d (fixed dims %d)\n", p.Tau, p.TauM, p.TauK, p.TauN, *fixed)
		fmt.Printf("  apply with: strassen.SetDefaultParams(%q, strassen.Params{Tau: %d, TauM: %d, TauK: %d, TauN: %d})\n",
			paramsKey, p.Tau, p.TauM, p.TauK, p.TauN)
		cur := strassen.DefaultParams(paramsKey)
		fmt.Printf("  current defaults: τ=%d τm=%d τk=%d τn=%d\n", cur.Tau, cur.TauM, cur.TauK, cur.TauN)

		// The -cores sweep re-measures the square crossover with both arms
		// on a c-worker runtime — DGEMM with its leaf threaded by column
		// bands against one level whose passes and seven leaves thread by
		// column bands — because τ is a function of the worker count: the
		// level's O(n²) passes and its smaller leaves scale differently
		// from one large leaf, so the crossover moves with c. A kernel
		// whose leaves cannot thread fails the sweep.
		// Rows install under "<kernel>@<cores>"; the rectangular parameters
		// are carried over from the sequential sweep above (the thin-
		// dimension crossovers are kernel-bound, not schedule-bound).
		for _, c := range coreCounts {
			if c < 2 {
				continue // the sequential row above covers one core
			}
			ctau, cpts, err := cutoff.SquareCutoffCores(kern, c, *sqLo, *sqHi, *sqStep, *seed+int64(c))
			if err != nil { // the other kernels still calibrate; exit 1 at the end
				slog.Error("cores sweep", "kernel", name, "cores", c, "err", err)
				exitCode = 1
				break
			}
			if *verbose {
				printCurve(cpts, fmt.Sprintf("DGEMM(%d cores)/DGEFMM(1 level, %d workers)", c, c), "parallel Strassen")
			}
			coresKey := fmt.Sprintf("%s@%d", name, c)
			if algoName != "default" && algoName != strassen.AlgoAuto {
				coresKey += "/" + algoName
			}
			if col != nil {
				col.Registry.Gauge("calibrate." + coresKey + ".tau").Set(int64(ctau))
			}
			fmt.Printf("  @%d cores: τ=%d (τm/τk/τn carried from the sequential sweep)\n", c, ctau)
			fmt.Printf("  apply with: strassen.SetDefaultParams(%q, strassen.Params{Tau: %d, TauM: %d, TauK: %d, TauN: %d})\n",
				coresKey, ctau, p.TauM, p.TauK, p.TauN)
		}

		// Kernels with fused packing/write-out hooks get a second sweep with
		// the one-level arm running fused; its (lower) crossover installs
		// under the "<kernel>+fused" parameter key.
		fusedCapable := (&strassen.Config{Kernel: kern, Fused: fusedMode}).FusedActive()
		slog.Info("fused winograd", "kernel", name, "mode", fusedMode, "sweep", fusedCapable)
		if fusedCapable {
			ftau, fpts := cutoff.SquareCutoffFused(kern, *sqLo, *sqHi, *sqStep, *seed)
			if *verbose {
				printCurve(fpts, "DGEMM/DGEFMM(1 fused level)", "fused Strassen")
			}
			fp := cutoff.RectParamsFused(kern, *rectLo, *rectHi, *rectSt, *fixed, *seed+1)
			fp.Tau = ftau
			if col != nil {
				col.Registry.Gauge("calibrate." + name + "+fused.tau").Set(int64(fp.Tau))
				col.Registry.Gauge("calibrate." + name + "+fused.tau_m").Set(int64(fp.TauM))
				col.Registry.Gauge("calibrate." + name + "+fused.tau_k").Set(int64(fp.TauK))
				col.Registry.Gauge("calibrate." + name + "+fused.tau_n").Set(int64(fp.TauN))
			}
			fmt.Printf("  fused:    τ=%d τm=%d τk=%d τn=%d (fixed dims %d)\n", fp.Tau, fp.TauM, fp.TauK, fp.TauN, *fixed)
			fmt.Printf("  apply with: strassen.SetDefaultParams(%q, strassen.Params{Tau: %d, TauM: %d, TauK: %d, TauN: %d})\n",
				name+"+fused", fp.Tau, fp.TauM, fp.TauK, fp.TauN)
			fcur := strassen.DefaultParams(name + "+fused")
			fmt.Printf("  current defaults: τ=%d τm=%d τk=%d τn=%d\n", fcur.Tau, fcur.TauM, fcur.TauK, fcur.TauN)
		}
	}

	if col != nil && *metricsOut != "" {
		if err := col.WriteMetricsFile(*metricsOut); err != nil {
			slog.Error("write metrics snapshot", "path", *metricsOut, "err", err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *metricsOut)
	}
	if *httpAddr != "" {
		slog.Info("calibration done; endpoints stay up until interrupt (Ctrl-C)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	os.Exit(exitCode)
}

// printCurve prints a -v ratio curve, marking the orders where the
// Strassen arm wins.
func printCurve(pts []cutoff.RatioPoint, ratio, winner string) {
	for _, p := range pts {
		marker := ""
		if p.Ratio > 1 {
			marker = "  <- " + winner + " wins"
		}
		fmt.Printf("  m=%4d  %s = %.4f%s\n", p.Dim, ratio, p.Ratio, marker)
	}
}

// parseCores parses the -cores list: a comma-separated set of worker
// counts, or "auto" for powers of two up to GOMAXPROCS (always including
// GOMAXPROCS itself when it is above one).
func parseCores(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	if s == "auto" {
		max := runtime.GOMAXPROCS(0)
		var out []int
		for c := 2; c < max; c *= 2 {
			out = append(out, c)
		}
		if max > 1 {
			out = append(out, max)
		}
		return out, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		out = append(out, c)
	}
	return out, nil
}

// calibrateBlocks times the packed kernel over a grid of (MC, KC)
// candidates around the cache-derived analytic seeds (NC is held at the
// derived value: it only matters once problems exceed the L3-scale panel,
// where its influence is flat) and prints the winning blocking plus the
// kernel.SetDefaultBlocks call that installs it — the block-size analogue
// of the cutoff-parameter workflow above.
func calibrateBlocks(n, reps int, seed int64) {
	caches := kernel.DetectCaches()
	dmc, dkc, dnc := kernel.DeriveBlocks(caches)
	fmt.Printf("caches: L1d=%dK L2=%dK L3=%dK\n", caches.L1D>>10, caches.L2>>10, caches.L3>>10)
	fmt.Printf("analytic seeds: MC=%d KC=%d NC=%d\n", dmc, dkc, dnc)

	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	flops := 2 * float64(n) * float64(n) * float64(n)

	grid := func(center, lo int, unit int) []int {
		var out []int
		for _, f := range []float64{0.5, 0.75, 1, 1.25, 1.5} {
			v := int(float64(center) * f)
			v = v / unit * unit
			if v >= lo {
				out = append(out, v)
			}
		}
		return out
	}

	type result struct {
		mc, kc int
		gflops float64
	}
	var best result
	for _, kc := range grid(dkc, 32, 32) {
		for _, mc := range grid(dmc, kernel.MR, kernel.MR) {
			k := &kernel.Packed{MC: mc, KC: kc, NC: dnc}
			var top float64
			for r := 0; r < reps; r++ {
				start := time.Now()
				k.MulAdd(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, c, n)
				if g := flops / time.Since(start).Seconds() / 1e9; g > top {
					top = g
				}
			}
			fmt.Printf("  MC=%-4d KC=%-4d  %.2f GFLOPS\n", mc, kc, top)
			if top > best.gflops {
				best = result{mc: mc, kc: kc, gflops: top}
			}
		}
	}
	fmt.Printf("best: MC=%d KC=%d NC=%d (%.2f GFLOPS at order %d)\n", best.mc, best.kc, dnc, best.gflops, n)
	fmt.Printf("apply with: kernel.SetDefaultBlocks(%d, %d, %d)\n", best.mc, best.kc, dnc)
}
