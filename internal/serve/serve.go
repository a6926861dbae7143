package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/strassen"
)

var errServerClosed = errors.New("serve: server is shutting down")

// Options configures New. The zero value (and a nil *Options) selects a
// GOMAXPROCS-sized batch pool, a 500µs coalesce window, no quotas, and an
// admission high-water mark derived from the queue depth.
type Options struct {
	// Pool, if non-nil, is the execution engine; the caller owns it and
	// Server.Close will not close it. Nil builds a pool from Workers,
	// QueueDepth, Config and Collector.
	Pool *batch.Pool
	// Workers and QueueDepth size the owned pool (see batch.Options).
	Workers    int
	QueueDepth int
	// Config is the base DGEFMM configuration; nil selects the defaults.
	Config *strassen.Config
	// Collector receives the service metrics and the pool's accounting,
	// and backs the debug endpoints. Nil creates a private collector (the
	// service is always observable).
	Collector *obs.Collector

	// HighWater is the admission-control mark: past this many concurrently
	// admitted requests the server answers 429 with Retry-After, shedding
	// load before the pool queue (whose send would otherwise block the
	// handler). <= 0 selects 4× the pool queue depth.
	HighWater int
	// CoalesceWindow is how long the first request of a shape waits for
	// same-shape company before its batch flushes. 0 selects
	// DefaultCoalesceWindow; negative disables waiting (every request
	// executes immediately, still through the pool). Long windows trade
	// latency for coalescing.
	CoalesceWindow time.Duration
	// MaxBatch flushes a shape group early once it holds this many calls.
	// <= 0 selects 32.
	MaxBatch int
	// Quota is the per-tenant admission quota table.
	Quota QuotaConfig

	// LargeWords routes requests whose largest operand exceeds this many
	// float64 words through the out-of-core tiled path instead of the
	// batch pool. <= 0 selects 1<<24 (128 MiB per operand); set it low to
	// exercise the tiled path on small matrices.
	LargeWords int64
	// OutOfCoreWords bounds the in-core workspace of the tiled path (see
	// outofcore.Options.WorkspaceWords). 0 selects that package's default.
	OutOfCoreWords int
	// SpoolDir, when non-empty, stages out-of-core operands in files under
	// this directory (outofcore.FileStore); empty keeps them in memory.
	SpoolDir string

	// Limits bounds the wire decoder; zero fields select DefaultLimits.
	Limits Limits
	// Logger receives request-level diagnostics; nil selects slog.Default.
	Logger *slog.Logger
}

// DefaultCoalesceWindow is the coalesce window when Options leaves it 0.
const DefaultCoalesceWindow = 500 * time.Microsecond

// Server is the GEMM service. Create with New, mount Handler on an
// http.Server, and Close when done (after http.Server.Shutdown, so no
// handler is in flight).
type Server struct {
	opts    Options
	pool    *batch.Pool
	ownPool bool
	coal    *coalescer
	quotas  *quotas
	frames  *framePool
	col     *obs.Collector
	log     *slog.Logger
	lim     Limits

	highWater int64
	inflight  atomic.Int64
	closed    atomic.Bool

	// out-of-core base config: per-request clones get a fresh kernel.
	ooBase strassen.Config

	mRequests     *obs.Counter
	mOK           *obs.Counter
	mRejQuota     *obs.Counter
	mRejBackpress *obs.Counter
	mBadRequest   *obs.Counter
	mDeadline     *obs.Counter
	mInternal     *obs.Counter
	mOutOfCore    *obs.Counter
	mBytesIn      *obs.Counter
	mBytesOut     *obs.Counter
	gInflight     *obs.Gauge
	hLatency      *obs.Histogram
}

// New builds a Server. It starts the owned batch pool's workers; nothing
// listens until the caller serves Handler.
func New(opts *Options) *Server {
	var o Options
	if opts != nil {
		o = *opts
	}
	s := &Server{opts: o, lim: o.Limits.withDefaults()}
	s.col = o.Collector
	if s.col == nil {
		s.col = obs.NewCollector()
	}
	s.log = o.Logger
	if s.log == nil {
		s.log = slog.Default()
	}

	s.pool = o.Pool
	if s.pool == nil {
		s.pool = batch.NewPool(&batch.Options{
			Workers:    o.Workers,
			QueueDepth: o.QueueDepth,
			Config:     o.Config,
			Collector:  s.col,
		})
		s.ownPool = true
	}

	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := o.QueueDepth
	if queue <= 0 {
		queue = 4 * workers
		if queue < 16 {
			queue = 16
		}
	}
	s.highWater = int64(o.HighWater)
	if s.highWater <= 0 {
		s.highWater = int64(4 * queue)
	}

	window := o.CoalesceWindow
	if window == 0 {
		window = DefaultCoalesceWindow
	}
	maxBatch := o.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 32
	}
	s.coal = newCoalescer(s.pool, window, maxBatch, s.col.Registry)
	s.quotas = newQuotas(o.Quota)
	s.frames = newFramePool(s.col.Registry)

	if o.LargeWords <= 0 {
		s.opts.LargeWords = 1 << 24
	}
	base := o.Config
	if base == nil {
		base = strassen.DefaultConfig(nil)
	}
	s.ooBase = *base
	s.ooBase.Tracker = nil

	reg := s.col.Registry
	s.mRequests = reg.Counter("serve.requests")
	s.mOK = reg.Counter("serve.ok")
	s.mRejQuota = reg.Counter("serve.rejected.quota")
	s.mRejBackpress = reg.Counter("serve.rejected.backpressure")
	s.mBadRequest = reg.Counter("serve.errors.bad_request")
	s.mDeadline = reg.Counter("serve.errors.deadline")
	s.mInternal = reg.Counter("serve.errors.internal")
	s.mOutOfCore = reg.Counter("serve.outofcore.calls")
	s.mBytesIn = reg.Counter("serve.bytes_in")
	s.mBytesOut = reg.Counter("serve.bytes_out")
	s.gInflight = reg.Gauge("serve.inflight")
	s.hLatency = reg.Histogram("serve.latency.ns")
	return s
}

// Collector returns the service's observability collector.
func (s *Server) Collector() *obs.Collector { return s.col }

// Pool returns the execution pool (owned or injected).
func (s *Server) Pool() *batch.Pool { return s.pool }

// Close drains pending coalesce groups, unmaps the idle operand frames
// (frames still held by abandoned calls are unmapped as they come back)
// and, when the pool is owned, closes it. Call after the HTTP server has
// shut down; Close is idempotent.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.coal.close()
	s.frames.close()
	if s.ownPool {
		s.pool.Close()
	}
}

// Handler returns the service mux: the GEMM endpoint plus the full obs
// debug surface (/debug/vars, /debug/pprof/..., /metrics, /openmetrics,
// /trace, /spans), /healthz, and /v1/stats.
func (s *Server) Handler() http.Handler {
	mux := obs.DebugMux(s.col)
	mux.HandleFunc("POST /v1/gemm", s.handleGEMM)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.closed.Load() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		stats := struct {
			Inflight  int64       `json:"inflight"`
			HighWater int64       `json:"highWater"`
			Pool      batch.Stats `json:"pool"`
			Frames    frameStats  `json:"frames"`
		}{s.inflight.Load(), s.highWater, s.pool.Stats(), s.frames.stats()}
		_ = writeJSON(w, stats)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// admit reserves one in-flight slot, refusing past the high-water mark.
func (s *Server) admit() bool {
	for {
		cur := s.inflight.Load()
		if cur >= s.highWater {
			return false
		}
		if s.inflight.CompareAndSwap(cur, cur+1) {
			s.gInflight.Set(cur + 1)
			return true
		}
	}
}

func (s *Server) release() {
	s.gInflight.Set(s.inflight.Add(-1))
}

// reject answers a pre-body failure with a plain-text status. Rejections
// happen before any response framing, so clients key off the HTTP code.
func reject(w http.ResponseWriter, code int, retryAfter time.Duration, msg string) {
	if retryAfter > 0 {
		secs := int(retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	http.Error(w, msg, code)
}

// handleGEMM is the service endpoint. The control flow mirrors the
// production trimmings in order: quota, admission, deadline, decode,
// (out-of-core | coalesce+batch), respond.
func (s *Server) handleGEMM(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mRequests.Add(1)
	if s.closed.Load() {
		reject(w, http.StatusServiceUnavailable, time.Second, "shutting down")
		return
	}

	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "anonymous"
	}
	if ok, retry := s.quotas.admit(tenant); !ok {
		s.mRejQuota.Add(1)
		reject(w, http.StatusTooManyRequests, retry, "tenant quota exceeded")
		return
	}
	if !s.admit() {
		s.mRejBackpress.Add(1)
		reject(w, http.StatusTooManyRequests, time.Second, "server at admission high-water mark")
		return
	}
	defer s.release()

	// Deadline propagation: the client's X-Deadline-Ms budget joins the
	// connection context; the combined context rides on the batch call,
	// where an expired deadline cancels the call — before it starts if it
	// is still queued, or mid-execution via the engine's between-product
	// polling if it is already running.
	ctx := r.Context()
	if ms := r.Header.Get("X-Deadline-Ms"); ms != "" {
		d, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || d <= 0 {
			s.mBadRequest.Add(1)
			reject(w, http.StatusBadRequest, 0, "bad X-Deadline-Ms")
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(d)*time.Millisecond)
		defer cancel()
	}

	hdr, err := DecodeHeader(r.Body, s.lim)
	if err != nil {
		s.mBadRequest.Add(1)
		reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	s.mBytesIn.Add(8 * (hdr.WordsA() + hdr.WordsB()))

	if s.large(hdr) {
		s.serveOutOfCore(ctx, w, r.Body, hdr, start)
		return
	}

	// The operands are drawn from the frame free list and go back once the
	// response is written (see framePool); C is drawn unzeroed even at
	// β = 0, where the engine overwrites it without reading it.
	var ops [3][]float64 // A, B, C
	defer func() { s.frames.put(ops[:]...) }()
	for i, words := range [3]int64{hdr.WordsA(), hdr.WordsB(), hdr.WordsC()} {
		if ops[i], err = s.frames.get(int(words)); err != nil {
			s.mInternal.Add(1)
			reject(w, http.StatusInternalServerError, 0, err.Error())
			return
		}
	}
	if err := readOperands(r.Body, hdr, ops[0], ops[1], ops[2]); err != nil {
		s.mBadRequest.Add(1)
		reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}

	call := callFromWire(hdr, ops[0], ops[1], ops[2])
	call.Ctx = ctx
	ch := s.coal.submit(call)

	var res result
	select {
	case res = <-ch:
	case <-ctx.Done():
		// The call stays in its group; its Ctx makes the worker skip it,
		// or stop between products if it is already running. Until it has
		// finished it may still write C, so the frames go back only then.
		go s.putAfter(ch, ops)
		ops = [3][]float64{}
		s.mDeadline.Add(1)
		reject(w, http.StatusGatewayTimeout, 0, ctx.Err().Error())
		return
	}
	if res.err != nil {
		if errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled) {
			s.mDeadline.Add(1)
			reject(w, http.StatusGatewayTimeout, 0, res.err.Error())
			return
		}
		s.mInternal.Add(1)
		reject(w, http.StatusInternalServerError, 0, res.err.Error())
		return
	}

	elapsed := time.Since(start)
	s.hLatency.Observe(elapsed)
	s.mOK.Add(1)
	s.mBytesOut.Add(8 * hdr.WordsC())
	w.Header().Set("Content-Type", ContentType)
	if err := EncodeResponse(w, &RespHeader{
		Status:    "ok",
		Batched:   res.batched,
		ElapsedNs: elapsed.Nanoseconds(),
	}, ops[2]); err != nil {
		// net/http holds no reference to C once Write has returned, so
		// the frame goes back as usual (see framePool).
		s.log.Debug("response write failed", "err", err)
	}
}

// putAfter returns an abandoned request's frames once its batch call has
// finished; every submitted call's channel receives exactly one result.
func (s *Server) putAfter(done <-chan result, ops [3][]float64) {
	<-done
	s.frames.put(ops[:]...)
}

// large reports whether a request must take the out-of-core path.
func (s *Server) large(h *ReqHeader) bool {
	lw := s.opts.LargeWords
	return h.WordsA() > lw || h.WordsB() > lw || h.WordsC() > lw
}

// callFromWire maps row-major wire operands onto a column-major batch call
// without copying, via Cᵀ = α·op(B)ᵀ·op(A)ᵀ + β·Cᵀ: a row-major r×c frame
// is byte-identical to the column-major c×r transpose, so swapping the
// operand slots and the m/n extents (transpose flags unchanged) computes
// the row-major result directly into the C frame.
func callFromWire(h *ReqHeader, a, b, c []float64) batch.Call {
	// Leading dimension of a wire frame viewed column-major = its wire row
	// length. A is stored m×k (row length k) or, transposed, k×m; B is
	// k×n (row length n) or n×k.
	lda := h.K
	if h.transA().IsTrans() {
		lda = h.M
	}
	ldb := h.N
	if h.transB().IsTrans() {
		ldb = h.K
	}
	return batch.Call{
		TransA: h.transB(), TransB: h.transA(),
		M: h.N, N: h.M, K: h.K,
		Alpha: h.Alpha, Beta: h.Beta,
		A: b, Lda: ldb,
		B: a, Ldb: lda,
		C: c, Ldc: h.N,
	}
}
