package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/strassen"
)

// Shape is one entry of a load mix: an M×K by K×N multiply issued with
// relative frequency Weight.
type Shape struct {
	M, N, K int
	Weight  int
}

// ParseShapes parses a load-mix spec: comma-separated entries of the form
// "MxKxN:weight" ("96x96x96:3"), where a bare order ("64") means a cube
// and a missing weight means 1.
func ParseShapes(spec string) ([]Shape, error) {
	var out []Shape
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		s := Shape{Weight: 1}
		if at := strings.IndexByte(ent, ':'); at >= 0 {
			w, err := strconv.Atoi(ent[at+1:])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("serve: bad shape weight in %q", ent)
			}
			s.Weight = w
			ent = ent[:at]
		}
		dims := strings.Split(ent, "x")
		switch len(dims) {
		case 1:
			n, err := strconv.Atoi(dims[0])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("serve: bad shape %q", ent)
			}
			s.M, s.K, s.N = n, n, n
		case 3:
			for i, dst := range []*int{&s.M, &s.K, &s.N} {
				d, err := strconv.Atoi(dims[i])
				if err != nil || d < 1 {
					return nil, fmt.Errorf("serve: bad shape %q", ent)
				}
				*dst = d
			}
		default:
			return nil, fmt.Errorf("serve: bad shape %q (want MxKxN or order)", ent)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, errors.New("serve: empty shape mix")
	}
	return out, nil
}

// LoadOptions configures RunLoad.
type LoadOptions struct {
	// BaseURL is the service root.
	BaseURL string
	// Clients is the number of concurrent client goroutines (default 8).
	Clients int
	// Calls is the total measured calls across clients (default 400).
	Calls int
	// Warmup calls per client are issued and discarded before measuring,
	// so plan construction and arena warmup stay out of the percentiles
	// (default 4 per client).
	Warmup int
	// Shapes is the weighted shape mix (required).
	Shapes []Shape
	// Seed makes the operand data and the shape sequence deterministic.
	Seed int64
	// Tenant is the X-Tenant header value.
	Tenant string
	// Timeout is the per-call deadline (0 = none).
	Timeout time.Duration
	// Check verifies every response against a locally computed reference
	// (sequential DGEFMM on the same operands) within a small relative
	// tolerance — the out-of-core tiled path accumulates in a different
	// order, so equality is approximate by design.
	Check bool
	// HTTPClient overrides the transport for every client goroutine.
	HTTPClient *httpDoer
}

type httpDoer = Client

// LoadResult aggregates one load run.
type LoadResult struct {
	Calls    int           `json:"calls"`    // successful measured calls
	Errors   int           `json:"errors"`   // failed calls (non-429)
	Rejected int           `json:"rejected"` // 429 rejections (quota/backpressure)
	Elapsed  time.Duration `json:"elapsed"`

	CallsPerSec   float64 `json:"calls_per_sec"`
	P50ms         float64 `json:"p50_ms"`
	P99ms         float64 `json:"p99_ms"`
	CoalesceRatio float64 `json:"coalesce_ratio"` // measured calls per server batch
	OutOfCore     int     `json:"out_of_core"`    // calls served by the tiled path
	CheckFailures int     `json:"check_failures"`
}

// RunLoad drives a deterministic concurrent load against a service and
// reports throughput, latency percentiles, and the coalesce ratio. Each
// client goroutine owns a seeded RNG (Seed+client), pre-generates one
// operand set per shape, and issues calls drawn from the weighted mix, so
// a run is reproducible modulo scheduling.
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadResult, error) {
	if len(opts.Shapes) == 0 {
		return nil, errors.New("serve: RunLoad needs a shape mix")
	}
	clients := opts.Clients
	if clients <= 0 {
		clients = 8
	}
	total := opts.Calls
	if total <= 0 {
		total = 400
	}
	warmup := opts.Warmup
	if warmup < 0 {
		warmup = 0
	}

	totalWeight := 0
	for _, s := range opts.Shapes {
		totalWeight += s.Weight
	}

	type clientStats struct {
		lat       []float64 // ms
		invBatch  float64   // sum of 1/batched over ok calls
		ok        int
		errors    int
		rejected  int
		outOfCore int
		checkFail int
	}
	stats := make([]clientStats, clients)

	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		calls := total / clients
		if ci < total%clients {
			calls++
		}
		wg.Add(1)
		go func(ci, calls int) {
			defer wg.Done()
			st := &stats[ci]
			rng := rand.New(rand.NewSource(opts.Seed + int64(ci)))
			cl := Client{BaseURL: opts.BaseURL, Tenant: opts.Tenant}
			if opts.HTTPClient != nil {
				cl.HTTPClient = opts.HTTPClient.HTTPClient
			}

			// One operand set (and optional reference result) per shape.
			type shapeData struct {
				req  GEMMRequest
				want []float64
			}
			data := make([]shapeData, len(opts.Shapes))
			for si, sh := range opts.Shapes {
				a := randomSlice(rng, sh.M*sh.K)
				b := randomSlice(rng, sh.K*sh.N)
				data[si].req = GEMMRequest{
					TransA: blas.NoTrans, TransB: blas.NoTrans,
					M: sh.M, N: sh.N, K: sh.K, Alpha: 1,
					A: a, B: b,
				}
				if opts.Check {
					data[si].want = referenceGEMM(nil, &data[si].req)
				}
			}
			pick := func() *shapeData {
				w := rng.Intn(totalWeight)
				for si := range opts.Shapes {
					if w -= opts.Shapes[si].Weight; w < 0 {
						return &data[si]
					}
				}
				return &data[len(data)-1]
			}

			issue := func(measured bool) {
				sd := pick()
				callCtx := ctx
				cancel := context.CancelFunc(func() {})
				if opts.Timeout > 0 {
					callCtx, cancel = context.WithTimeout(ctx, opts.Timeout)
				}
				res, err := cl.GEMM(callCtx, &sd.req)
				cancel()
				if !measured {
					return
				}
				if err != nil {
					var he *HTTPError
					if errors.As(err, &he) && he.Throttled() {
						st.rejected++
					} else {
						st.errors++
					}
					return
				}
				st.ok++
				st.lat = append(st.lat, float64(res.Latency.Nanoseconds())/1e6)
				if res.Batched > 0 {
					st.invBatch += 1 / float64(res.Batched)
				} else {
					st.invBatch++
				}
				if res.OutOfCore {
					st.outOfCore++
				}
				if sd.want != nil && !approxEqual(res.C, sd.want, 1e-10) {
					st.checkFail++
				}
			}

			for i := 0; i < warmup && ctx.Err() == nil; i++ {
				issue(false)
			}
			for i := 0; i < calls && ctx.Err() == nil; i++ {
				issue(true)
			}
		}(ci, calls)
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := &LoadResult{Elapsed: elapsed}
	var lat []float64
	var invBatch float64
	for i := range stats {
		st := &stats[i]
		out.Calls += st.ok
		out.Errors += st.errors
		out.Rejected += st.rejected
		out.OutOfCore += st.outOfCore
		out.CheckFailures += st.checkFail
		invBatch += st.invBatch
		lat = append(lat, st.lat...)
	}
	if out.Calls > 0 && elapsed > 0 {
		out.CallsPerSec = float64(out.Calls) / elapsed.Seconds()
	}
	if invBatch > 0 {
		out.CoalesceRatio = float64(out.Calls) / invBatch
	}
	sort.Float64s(lat)
	out.P50ms = percentile(lat, 0.50)
	out.P99ms = percentile(lat, 0.99)
	if ctx.Err() != nil && out.Calls == 0 {
		return out, ctx.Err()
	}
	return out, nil
}

func randomSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// referenceGEMM computes the row-major expected result with a sequential
// DGEFMM call on cfg (nil selects the defaults) — the same mapping the
// server applies, so in-core responses match bit-for-bit.
func referenceGEMM(cfg *strassen.Config, req *GEMMRequest) []float64 {
	hdr := &ReqHeader{
		M: req.M, N: req.N, K: req.K,
		TransA: transString(req.TransA), TransB: transString(req.TransB),
		Alpha: req.Alpha, Beta: req.Beta,
	}
	c := make([]float64, hdr.WordsC())
	if req.C != nil {
		copy(c, req.C)
	}
	call := callFromWire(hdr, req.A, req.B, c)
	if cfg == nil {
		cfg = strassen.DefaultConfig(nil)
	}
	strassen.DGEFMM(cfg, call.TransA, call.TransB, call.M, call.N, call.K,
		call.Alpha, call.A, call.Lda, call.B, call.Ldb, call.Beta, call.C, call.Ldc)
	return c
}

// approxEqual compares element-wise with a relative-to-magnitude epsilon,
// loose enough for the out-of-core path's different accumulation order.
func approxEqual(got, want []float64, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		diff := math.Abs(got[i] - want[i])
		scale := math.Max(1, math.Abs(want[i]))
		if diff > tol*scale {
			return false
		}
	}
	return true
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Round(q * float64(len(sorted)-1)))
	return sorted[idx]
}
