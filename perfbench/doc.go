// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every result, and prints every metric
// as "name value unit", then one JSON line with the keys correct,
// attempted, failed and metrics. Run it from the repository root; the
// wrapper builds the binary first:
//
//	bash perfbench/run.sh --workload square_b0 --seed 1 --seconds 25 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads and metrics,
// and the bound by which each end-to-end metric may worsen before a change
// counts as a regression.
//
// # Workloads
//
// Each compute workload is one closed-loop caller issuing one call at a
// time. Shapes, rates and counts are literals (compute.go, serve.go);
// nothing is derived from τ or the calibrated cutoffs at run time.
//
//   - square_b0: C = A·B at n = 1024, β = 0, default sequential config:
//     the paper's STRASSEN1 path, two recursion levels with the last one
//     fused and no peeling. Each 8 MB operand is far larger than a core's
//     caches, so add/sub, quadrant and fused traffic carry the overhead.
//   - odd_update: C = (1/3)·A·B + (1/4)·C at n = 1023, the paper's Table 5
//     setting: STRASSEN2 with peeling at every level. It uses the strassen
//     layer differently from square_b0, so a gain for one schedule that
//     costs the other shows.
//   - par_square: the square_b0 call on a sched runtime with one worker per
//     CPU, the only workload where the product DAG, stealing and the
//     threaded MC loop do real work.
//   - serve_mix: an in-process dgefmmd on a real socket (h2c, one client
//     connection per CPU, 1 ms coalesce window) under the request mix
//     64³:4, 96³:3, 128×96×64:2, 192³ with Bᵀ and β = 0.5:2. Every shape
//     is below the cutoff, so the recursion never fires and the wire, the
//     coalescer, the batch queue and small-shape packing dominate. An open
//     loop of Poisson arrivals at 700 requests/s gives the latencies, timed
//     from each request's due time, with at most as many requests in flight
//     as the closed loop keeps; a capacity probe then alternates 250 ms
//     closed-loop bursts (eight requests per connection outstanding) with
//     250 ms bursts of the same requests computed in process, one caller
//     per connection.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports every metric. Each one either cancels the host's
// speed or does not depend on it: on a shared host absolute call times
// drift by 10–30% within minutes, far past any useful bound, so they are
// the unbounded wall.* metrics of the traced run.
//
//	setup_s           s        median of 9 fresh set-ups; a set-up builds
//	                           the tracker, kernel, runtime or server and
//	                           runs the first, cold call (input generation
//	                           excluded)
//	speedup_vs_dgemm  ratio    median over pairs of t(DGEMM) ÷ t(call) on
//	                           the same operands, the order alternating.
//	                           DGEMM is the sequential in-process kernel, so
//	                           par_square includes the parallel gain. On
//	                           serve_mix, median over burst pairs of the
//	                           served rate ÷ the in-process DGEMM rate on the
//	                           same CPUs: the share of the kernel's
//	                           throughput the server delivers
//	workspace_mb      MB       peak extra workspace: Strassen temporaries plus
//	                           kernel packing buffers
//	rss_peak_mb       MB       VmHWM of the benchmark process
//
// Failures — errors, 429 refusals and wrong results — are the JSON line's
// failed count against attempted, not a metric, since a metric must never
// read 0. A matrix result is wrong when it differs from DGEMM on the same
// operands by more than the Higham-style bound u·k·|α|·max|A|·max|B|·(1+6^d)
// + 2u·|β|·max|C| at recursion depth d; par_square must also match the same
// call on a one-worker runtime bit for bit, and a served result must match
// the in-process DGEFMM reference bit for bit.
//
// # Per-layer metrics (--trace 1)
//
// The traced run pairs untraced calls with calls made while a
// phase.Profiler is installed and an obs.SpanRecorder records spans, and
// derives these metrics from the traced calls, printing 0 where a
// workload does not reach a layer. A share divides phase time by the
// traced call time (one thread), by workers × window (par_square) or by
// pool workers × window (serve_mix). Each row names the end-to-end metric
// it should move and where; elsewhere the prediction is no change.
//
//	whole call         wall.gflops (Σ2mnk ÷ Σ untraced call time;
//	                   serve_mix: median closed-loop burst rate),
//	                   wall.p50_ms, wall.p90_ms (nearest rank over the
//	                   untraced calls; serve_mix: the open loop, traced).
//	                   p90 is the tail percentile with at least 10 samples
//	                   beyond it from 100 calls on; a run with fewer prints
//	                   a note. Absolute, so they follow the host's speed
//	internal/kernel    kernel.micro.gflops, kernel.micro.share,
//	                   kernel.fringe.share, kernel.simd_tile_ratio
//	                   → wall.* on every workload; speedup_vs_dgemm may
//	                   fall, since the DGEMM arm speeds up too
//	internal/kernel    kernel.pack.share, kernel.pack.gbps
//	                   → wall.p50_ms and speedup_vs_dgemm on serve_mix
//	kernel, fused      kernel.fused_pack.share, kernel.fused_writeout.share
//	                   → speedup_vs_dgemm on square_b0
//	internal/strassen  strassen.{addsub,quadrant}.{share,gbps}
//	                   → speedup_vs_dgemm, wall.gflops on square_b0,
//	                   odd_update
//	internal/strassen  strassen.peel.share
//	                   → speedup_vs_dgemm, wall.p50_ms on odd_update
//	internal/strassen  strassen.depth, strassen.nodes_per_call,
//	                   strassen.flop_ratio (Σ phase FLOPs ÷ 2mnk, exact),
//	                   strassen.err_ratio (largest error ÷ bound)
//	                   → speedup_vs_dgemm on square_b0, odd_update
//	internal/memtrack  arena.peak_mwords, arena.plan_ratio (tracker peak ÷
//	                   strassen.PlanFor(...).Words, must read 1),
//	                   arena.draw.share
//	                   → workspace_mb, rss_peak_mb on every workload
//	internal/sched     sched.idle_ratio, sched.task_run.share (nested task
//	                   frames count again), sched.steals_per_call,
//	                   sched.tasks_per_call, sched.max_running,
//	                   sched.parallel_speedup (1 worker ÷ all, paired)
//	                   → speedup_vs_dgemm, wall.p50_ms on par_square
//	internal/batch     batch.queue_wait_ms, batch.arena_reuse_ratio,
//	                   batch.buckets
//	                   → wall.p90_ms on serve_mix
//	internal/serve     serve.coalesce_ratio, serve.server_p50_ms,
//	                   serve.server_p90_ms (log2 buckets of the server's
//	                   serve.latency.ns), serve.p99_ms, serve.rejected_ratio,
//	                   serve.gen_late_p99_ms (how late the open loop sent)
//	                   → speedup_vs_dgemm, wall.* on serve_mix
//	accounting         obs.residual.ratio, trace.overhead.ratio
//	                   → nothing; they check the attribution itself
//
// obs.residual.ratio is the share of time no phase accounts for: 1 − Σ
// leaf phases ÷ call time on the sequential workloads; 1 − (compute +
// steal + idle) ÷ (workers × window) on par_square, where task_run frames
// nest and cannot be summed; and 1 − (compute + arena + queue wait) ÷
// server-side request time on serve_mix, where decoding, the coalesce
// window and the response are not phases. A negative value means some time
// was counted twice. trace.overhead.ratio is the median of paired traced ÷
// untraced call times (serve_mix: untraced ÷ traced burst rates). The
// serve_mix layer window is the open loop. End-to-end metrics always come
// from untraced runs.
//
// The traced run also writes, under --trace-dir (run.sh points it at
// .bench_build/trace), <workload>.trace.json and <workload>.layers.json.
// The first is a Chrome trace (open it in ui.perfetto.dev) whose roots
// are the benchmark's own spans, one per call ("call") or, on serve_mix,
// one per client request ("request"), with the recursion spans beneath.
// The second holds the per-layer metrics and the raw phase totals.
//
// # Seeds
//
// --seed generates every operand, the arrival schedule and the request
// sequence; the program under test receives only generated inputs. Each
// run prints a SHA-256 digest of its inputs, so two commits can be shown to
// have measured identical inputs.
//
// # Why paired ratios
//
// The legacy cmd/benchdiff gate times single calls in absolute GFLOPS. On
// a shared 2-CPU host it fails on an untouched tree (kernel.packed.256
// −35.8%, kernel.blocked.512 −25.5%, repetition spreads up to ±64%), so host
// noise, not code, decides it. Whole-run absolute times here drift with
// the host as well: over 200 s of back-to-back n = 1024 calls on a 2-vCPU
// share of a Xeon, 20 s window medians of one process ranged 94–111 ms, and
// runs minutes apart 67–95 ms. A DGEMM/DGEFMM ratio measured back to back
// on the same operands stayed within 2% over the same windows, and a
// served-vs-in-process rate ratio within 1% once both arms ran on the same
// CPUs (with a one-CPU in-process arm it spread 6–10%, since contention on
// the second CPU reached only the served arm). So only ratios, memory and
// set-up time carry bounds.
package main
