package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/strassen"
)

// newTestServer builds a Server and an httptest front end; both are torn
// down with the test (HTTP first, so no handler is in flight at Close).
func newTestServer(t *testing.T, opts *Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestServeMatchesSequential is the core contract: an in-core response is
// bit-for-bit the sequential DGEFMM result — the coalescer, pool, and
// row-major/column-major mapping introduce no numerical drift.
func TestServeMatchesSequential(t *testing.T) {
	_, ts := newTestServer(t, &Options{Workers: 2})
	cl := &Client{BaseURL: ts.URL}
	rng := rand.New(rand.NewSource(41))

	cases := []GEMMRequest{
		{M: 8, N: 8, K: 8, Alpha: 1},
		{M: 17, N: 3, K: 29, Alpha: -0.5},                             // odd, rectangular
		{M: 5, N: 7, K: 9, TransA: blas.Trans, Alpha: 2},              // Aᵀ
		{M: 6, N: 4, K: 11, TransB: blas.Trans, Alpha: 1, Beta: 0.25}, // Bᵀ, accumulate
		{M: 13, N: 13, K: 13, TransA: blas.Trans, TransB: blas.Trans, Alpha: 1.5, Beta: -1},
		{M: 1, N: 1, K: 1, Alpha: 3},
		{M: 96, N: 96, K: 96, Alpha: 1}, // large enough to recurse
	}
	for _, req := range cases {
		req.A = randFloats(rng, req.M*req.K)
		req.B = randFloats(rng, req.K*req.N)
		if req.Beta != 0 {
			req.C = randFloats(rng, req.M*req.N)
		}
		want := referenceGEMM(nil, &req)
		res, err := cl.GEMM(context.Background(), &req)
		if err != nil {
			t.Fatalf("m=%d n=%d k=%d: %v", req.M, req.N, req.K, err)
		}
		if !reflect.DeepEqual(res.C, want) {
			t.Fatalf("m=%d n=%d k=%d tA=%v tB=%v beta=%g: result differs from sequential DGEFMM",
				req.M, req.N, req.K, req.TransA.IsTrans(), req.TransB.IsTrans(), req.Beta)
		}
		if res.Batched < 1 {
			t.Fatalf("batched=%d on a successful call", res.Batched)
		}
		if res.OutOfCore {
			t.Fatal("small call routed out of core")
		}
	}
}

// TestServeCoalescing pins the tentpole behavior: concurrent same-shape
// requests ride one batch. The window is generous (200ms) so all arrivals
// join the first group regardless of scheduling.
func TestServeCoalescing(t *testing.T) {
	srv, ts := newTestServer(t, &Options{Workers: 2, CoalesceWindow: 200 * time.Millisecond})
	const calls = 8
	rng := rand.New(rand.NewSource(42))
	a, b := randFloats(rng, 24*24), randFloats(rng, 24*24)

	var wg sync.WaitGroup
	batched := make([]int, calls)
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &Client{BaseURL: ts.URL}
			res, err := cl.GEMM(context.Background(), &GEMMRequest{
				M: 24, N: 24, K: 24, Alpha: 1, A: a, B: b,
			})
			if err != nil {
				errs[i] = err
				return
			}
			batched[i] = res.Batched
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	maxBatch := 0
	for _, n := range batched {
		if n > maxBatch {
			maxBatch = n
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing: batch sizes %v", batched)
	}
	reg := srv.Collector().Registry
	nCalls := reg.Counter("serve.coalesce.calls").Value()
	nBatches := reg.Counter("serve.coalesce.batches").Value()
	if nCalls != calls {
		t.Fatalf("coalesce.calls = %d, want %d", nCalls, calls)
	}
	if nBatches >= calls {
		t.Fatalf("coalesce.batches = %d for %d calls: nothing coalesced", nBatches, calls)
	}
}

// TestServeDeadline: a request whose X-Deadline-Ms expires while parked in
// a long coalesce window gets 504 and the deadline counter ticks; the
// group's later flush must skip the dead call without incident.
func TestServeDeadline(t *testing.T) {
	srv, ts := newTestServer(t, &Options{
		Workers:        1,
		CoalesceWindow: 2 * time.Second, // far past the request deadline
	})
	var buf bytes.Buffer
	h := ReqHeader{M: 4, N: 4, K: 4, Alpha: 1}
	if err := EncodeRequest(&buf, &h, make([]float64, 16), make([]float64, 16), nil); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/gemm", &buf)
	req.Header.Set("Content-Type", ContentType)
	req.Header.Set("X-Deadline-Ms", "50")

	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, bytes.TrimSpace(body))
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("504 took %v: the deadline did not cut the coalesce window short", waited)
	}
	if n := srv.Collector().Registry.Counter("serve.errors.deadline").Value(); n != 1 {
		t.Fatalf("deadline counter = %d, want 1", n)
	}
	// Close flushes the still-pending group; the canceled call must be
	// skipped by the worker (batch.Call.Ctx), not executed or paniced on.
	srv.Close()
}

// slowKernel delays every leaf multiply, so a recursing request takes far
// longer than its deadline and the expiry lands while the multiply runs.
type slowKernel struct {
	blas.Kernel
	delay time.Duration
	calls atomic.Int64
}

func (k *slowKernel) MulAdd(transA, transB blas.Transpose, m, n, kk int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	k.calls.Add(1)
	time.Sleep(k.delay)
	k.Kernel.MulAdd(transA, transB, m, n, kk, alpha, a, lda, b, ldb, c, ldc)
}

// TestServeDeadlineCancelsRunningMultiply: a deadline that expires while
// the multiply is EXECUTING (not parked in a coalesce window or queue)
// must cancel it mid-flight — the engine polls the call's context between
// products, so the worker abandons the remaining leaf multiplies instead
// of running the batch to completion after the client is gone.
func TestServeDeadlineCancelsRunningMultiply(t *testing.T) {
	kern := &slowKernel{Kernel: blas.NaiveKernel{}, delay: 2 * time.Millisecond}
	srv, ts := newTestServer(t, &Options{
		Workers:        1,
		CoalesceWindow: time.Millisecond,
		Config:         &strassen.Config{Kernel: kern, Criterion: strassen.Simple{Tau: 8}},
	})
	rng := rand.New(rand.NewSource(44))
	a, b := randFloats(rng, 64*64), randFloats(rng, 64*64)
	encode := func() *bytes.Buffer {
		var buf bytes.Buffer
		h := ReqHeader{M: 64, N: 64, K: 64, Alpha: 1}
		if err := EncodeRequest(&buf, &h, a, b, nil); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	// Control run without a deadline: measures the full leaf-multiply count
	// of this shape (and warms the pool's plan bucket).
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/gemm", encode())
	req.Header.Set("Content-Type", ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control run status %d", resp.StatusCode)
	}
	total := kern.calls.Load()

	// Deadline run: 60ms expires a few dozen leaves in (~2ms each), well
	// before the full count is reached.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/gemm", encode())
	req.Header.Set("Content-Type", ContentType)
	req.Header.Set("X-Deadline-Ms", "60")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, bytes.TrimSpace(body))
	}
	if n := srv.Collector().Registry.Counter("serve.errors.deadline").Value(); n < 1 {
		t.Fatalf("deadline counter = %d, want ≥ 1", n)
	}

	// The worker must abandon the multiply: the leaf count stabilizes far
	// below the control run's total instead of grinding to completion.
	var last int64 = -1
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur := kern.calls.Load()
		if cur == last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leaf multiplies never stabilized after cancellation")
		}
		last = cur
		time.Sleep(30 * time.Millisecond)
	}
	if ran := kern.calls.Load() - total; ran >= total/2 {
		t.Fatalf("canceled multiply still ran %d of %d leaf multiplies", ran, total)
	}
}

// TestServeBackpressure: past the admission high-water mark requests are
// shed with 429 + Retry-After instead of queueing behind the pool.
func TestServeBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, &Options{
		Workers:        1,
		HighWater:      1,
		CoalesceWindow: time.Second, // parks the first request, holding its slot
	})
	rng := rand.New(rand.NewSource(43))
	a, b := randFloats(rng, 8*8), randFloats(rng, 8*8)

	first := make(chan error, 1)
	go func() {
		cl := &Client{BaseURL: ts.URL}
		_, err := cl.GEMM(context.Background(), &GEMMRequest{M: 8, N: 8, K: 8, Alpha: 1, A: a, B: b})
		first <- err
	}()

	// Wait until the first request is admitted (inflight gauge = 1).
	gauge := srv.Collector().Registry.Gauge("serve.inflight")
	deadline := time.Now().Add(5 * time.Second)
	for gauge.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	var buf bytes.Buffer
	h := ReqHeader{M: 8, N: 8, K: 8, Alpha: 1}
	if err := EncodeRequest(&buf, &h, a, b, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/gemm", ContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if n := srv.Collector().Registry.Counter("serve.rejected.backpressure").Value(); n != 1 {
		t.Fatalf("backpressure counter = %d, want 1", n)
	}
	if err := <-first; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}
}

func TestServeQuota(t *testing.T) {
	srv, ts := newTestServer(t, &Options{
		Workers: 1,
		Quota: QuotaConfig{
			Tenants: map[string]TenantQuota{"banned": {}},
		},
	})
	rng := rand.New(rand.NewSource(44))
	req := &GEMMRequest{M: 4, N: 4, K: 4, Alpha: 1,
		A: randFloats(rng, 16), B: randFloats(rng, 16)}

	banned := &Client{BaseURL: ts.URL, Tenant: "banned"}
	_, err := banned.GEMM(context.Background(), req)
	he, ok := err.(*HTTPError)
	if !ok || !he.Throttled() {
		t.Fatalf("zero-quota tenant got %v, want a 429 HTTPError", err)
	}
	if he.RetryAfter <= 0 {
		t.Fatal("429 without a Retry-After hint")
	}

	// The unlimited default is unaffected by the banned tenant's bucket.
	anon := &Client{BaseURL: ts.URL}
	if _, err := anon.GEMM(context.Background(), req); err != nil {
		t.Fatalf("anonymous tenant rejected: %v", err)
	}
	if n := srv.Collector().Registry.Counter("serve.rejected.quota").Value(); n != 1 {
		t.Fatalf("quota counter = %d, want 1", n)
	}
}

// TestClientReleasesOperands pins GEMMRequest's ownership rule: once
// GEMM returns, the transport no longer reads A, B or C. A zero-quota
// tenant is answered 429 before the server reads the body, so the
// transport may still be sending the operands when the answer arrives;
// under -race, overwriting them right after each call reports a race
// unless GEMM waited for the transport to close the body.
func TestClientReleasesOperands(t *testing.T) {
	srv := New(&Options{
		Workers: 1,
		Quota:   QuotaConfig{Tenants: map[string]TenantQuota{"banned": {}}},
	})
	ts := httptest.NewUnstartedServer(srv.Handler())
	EnableH2C(ts.Config, nil)
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	for _, proto := range []string{"http1", "h2c"} {
		t.Run(proto, func(t *testing.T) {
			tr := &http.Transport{}
			if proto == "h2c" && !EnableH2C(nil, tr) {
				t.Skip("h2c needs go1.24")
			}
			defer tr.CloseIdleConnections()
			cl := &Client{BaseURL: ts.URL, Tenant: "banned", HTTPClient: &http.Client{Transport: tr}}
			const n, callers, calls = 256, 4, 6
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req := &GEMMRequest{M: n, N: n, K: n, Alpha: 1, Beta: 1,
						A: make([]float64, n*n), B: make([]float64, n*n), C: make([]float64, n*n)}
					for i := 0; i < calls; i++ {
						_, err := cl.GEMM(context.Background(), req)
						if he, ok := err.(*HTTPError); !ok || !he.Throttled() {
							t.Errorf("zero-quota tenant got %v, want a 429 HTTPError", err)
							return
						}
						for j := range req.A {
							req.A[j], req.C[j] = float64(i), float64(j)
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestServeOutOfCore routes an oversized operand set through the tiled
// path — chunked transfer in, tiled multiply, streamed result out — in both
// staging modes, and verifies against the sequential reference (approximate:
// the tiled accumulation order differs).
func TestServeOutOfCore(t *testing.T) {
	for _, mode := range []string{"mem", "spool"} {
		t.Run(mode, func(t *testing.T) {
			opts := &Options{
				Workers:        1,
				LargeWords:     1000, // 64³ operands (4096 words) go out of core
				OutOfCoreWords: 3 * 16 * 16,
			}
			if mode == "spool" {
				opts.SpoolDir = t.TempDir()
			}
			srv, ts := newTestServer(t, opts)
			rng := rand.New(rand.NewSource(45))
			req := &GEMMRequest{
				M: 64, N: 64, K: 64, Alpha: 1.5, Beta: 0.5,
				A: randFloats(rng, 64*64), B: randFloats(rng, 64*64), C: randFloats(rng, 64*64),
			}
			want := referenceGEMM(nil, req)

			cl := &Client{BaseURL: ts.URL}
			res, err := cl.GEMM(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OutOfCore {
				t.Fatal("oversized request served in core")
			}
			if !approxEqual(res.C, want, 1e-10) {
				t.Fatal("out-of-core result differs from the sequential reference")
			}
			if n := srv.Collector().Registry.Counter("serve.outofcore.calls").Value(); n != 1 {
				t.Fatalf("outofcore counter = %d, want 1", n)
			}

			// The tiled path declines transposed operands with 400.
			treq := *req
			treq.TransA = blas.Trans
			_, err = cl.GEMM(context.Background(), &treq)
			if he, ok := err.(*HTTPError); !ok || he.Status != http.StatusBadRequest {
				t.Fatalf("transposed out-of-core request got %v, want 400", err)
			}
		})
	}
}

func TestServeBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, &Options{Workers: 1})
	post := func(body []byte, hdr map[string]string) int {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/gemm", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentType)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	var valid bytes.Buffer
	h := ReqHeader{M: 2, N: 2, K: 2, Alpha: 1}
	if err := EncodeRequest(&valid, &h, make([]float64, 4), make([]float64, 4), nil); err != nil {
		t.Fatal(err)
	}

	if code := post([]byte("garbage"), nil); code != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", code)
	}
	if code := post(valid.Bytes()[:12], nil); code != http.StatusBadRequest {
		t.Fatalf("truncated body: %d, want 400", code)
	}
	if code := post(valid.Bytes(), map[string]string{"X-Deadline-Ms": "soon"}); code != http.StatusBadRequest {
		t.Fatalf("bad deadline header: %d, want 400", code)
	}
	// One byte past the last frame is a frame-length mismatch, rejected
	// as DecodeRequest rejects it.
	if code := post(append(bytes.Clone(valid.Bytes()), 0), nil); code != http.StatusBadRequest {
		t.Fatalf("trailing byte: %d, want 400", code)
	}
	if n := srv.Collector().Registry.Counter("serve.errors.bad_request").Value(); n != 4 {
		t.Fatalf("bad_request counter = %d, want 4", n)
	}
	if st := srv.frames.stats(); st.LiveWords != 0 {
		t.Fatalf("%d frame words still live after the rejected requests", st.LiveWords)
	}
}

// TestServeObservability: the obs surface rides the service mux, and the
// serve metric family is visible in the OpenMetrics rendering.
func TestServeObservability(t *testing.T) {
	_, ts := newTestServer(t, &Options{Workers: 1})
	rng := rand.New(rand.NewSource(46))
	cl := &Client{BaseURL: ts.URL}
	if _, err := cl.GEMM(context.Background(), &GEMMRequest{
		M: 8, N: 8, K: 8, Alpha: 1,
		A: randFloats(rng, 64), B: randFloats(rng, 64),
	}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	if body := get("/openmetrics"); !strings.Contains(body, "serve_requests_total 1") ||
		!strings.Contains(body, "serve_ok_total 1") {
		t.Fatalf("openmetrics missing serve counters:\n%s", body)
	}
	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %q", body)
	}
	if body := get("/v1/stats"); !strings.Contains(body, `"pool"`) {
		t.Fatalf("stats: %q", body)
	}
}

// TestServeShutdownLeakFree: a full serve/load/shutdown cycle leaves no
// goroutines behind — coalesce timers, pool workers, and HTTP servers all
// stop. Run under -race in CI.
func TestServeShutdownLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := New(&Options{Workers: 2, CoalesceWindow: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	rng := rand.New(rand.NewSource(47))
	a, b := randFloats(rng, 16*16), randFloats(rng, 16*16)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &Client{BaseURL: ts.URL}
			if _, err := cl.GEMM(context.Background(), &GEMMRequest{
				M: 16, N: 16, K: 16, Alpha: 1, A: a, B: b,
			}); err != nil {
				t.Errorf("load call: %v", err)
			}
		}()
	}
	wg.Wait()
	ts.Close()
	srv.Close()
	http.DefaultClient.CloseIdleConnections()

	// Goroutine counts settle asynchronously (netpoll, timer goroutines);
	// poll with a deadline instead of asserting an instant.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeClosedPool: calls after Close are refused cleanly, not deadlocked.
func TestServeClosed(t *testing.T) {
	srv := New(&Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()

	rng := rand.New(rand.NewSource(48))
	cl := &Client{BaseURL: ts.URL}
	_, err := cl.GEMM(context.Background(), &GEMMRequest{
		M: 4, N: 4, K: 4, Alpha: 1, A: randFloats(rng, 16), B: randFloats(rng, 16),
	})
	if err == nil {
		t.Fatal("call after Close succeeded")
	}
	he, ok := err.(*HTTPError)
	if !ok || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want 503", err)
	}
	if !strings.Contains(he.Error(), "503") || he.Throttled() {
		t.Fatalf("error string %q / Throttled=%v for a 503", he.Error(), he.Throttled())
	}
	if srv.Pool() == nil {
		t.Fatal("Pool accessor returned nil")
	}
}

// TestRunLoadInProcess exercises the load harness against an in-process
// server — the same path cmd/loadgen and the benchdiff serve suite use.
func TestRunLoadInProcess(t *testing.T) {
	_, ts := newTestServer(t, &Options{Workers: 2, CoalesceWindow: time.Millisecond})
	shapes, err := ParseShapes("16x16x16:2,24x16x8:1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLoad(context.Background(), LoadOptions{
		BaseURL: ts.URL,
		Clients: 4,
		Calls:   40,
		Warmup:  1,
		Shapes:  shapes,
		Seed:    7,
		Check:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls != 40 || res.Errors != 0 || res.Rejected != 0 {
		t.Fatalf("calls=%d errors=%d rejected=%d, want 40/0/0", res.Calls, res.Errors, res.Rejected)
	}
	if res.CheckFailures != 0 {
		t.Fatalf("%d check failures", res.CheckFailures)
	}
	if res.CallsPerSec <= 0 || res.P50ms <= 0 || res.P99ms < res.P50ms {
		t.Fatalf("implausible stats: %+v", res)
	}
	if res.CoalesceRatio < 1 {
		t.Fatalf("coalesce ratio %f < 1", res.CoalesceRatio)
	}
	// Determinism: the same seed generates the same operands, so a second
	// run also checks clean against the same references.
	res2, err := RunLoad(context.Background(), LoadOptions{
		BaseURL: ts.URL, Clients: 4, Calls: 40, Shapes: shapes, Seed: 7, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CheckFailures != 0 {
		t.Fatalf("second run: %d check failures", res2.CheckFailures)
	}
	_ = fmt.Sprintf("%v", res2)
}
