package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/strassen"
)

// idleFrames lists every idle frame's base address, failing on a frame
// that sits on a free list twice, which would hand it to two requests, and
// on books that disagree: the put order must hold exactly the frames on
// the size lists, and idle frames must be the held ones not live.
func idleFrames(t *testing.T, p *framePool) map[*float64]int {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := make(map[*float64]int)
	var live, words int64
	for size, s := range p.sizes {
		if s.live == 0 && len(s.idle) == 0 {
			t.Fatalf("the %d-word entry has no frames", size)
		}
		live += s.live
		for _, n := range s.idle {
			if len(n.f) != size {
				t.Fatalf("a %d-word frame is on the %d-word list", len(n.f), size)
			}
			if _, dup := seen[&n.f[0]]; dup {
				t.Fatalf("a %d-word frame is on its free list twice", size)
			}
			seen[&n.f[0]] = size
			words += int64(size)
		}
	}
	inOrder := 0
	for n := p.oldest; n != nil; n = n.next {
		if _, ok := seen[&n.f[0]]; !ok {
			t.Fatalf("a %d-word frame in the put order is on no free list", len(n.f))
		}
		inOrder++
	}
	if inOrder != len(seen) {
		t.Fatalf("%d frames in the put order, %d on the free lists", inOrder, len(seen))
	}
	if int64(len(seen)) != p.held-live {
		t.Fatalf("%d idle frames, but %d held and %d live", len(seen), p.held, live)
	}
	if words != p.idleWords || p.liveWords+p.idleWords > 2*p.peak {
		t.Fatalf("%d live and %d idle words (counted %d), live peak %d", p.liveWords, p.idleWords, words, p.peak)
	}
	return seen
}

// getFrame draws a frame of words float64s from p.
func getFrame(t *testing.T, p *framePool, words int) []float64 {
	t.Helper()
	f, err := p.get(words)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != words {
		t.Fatalf("got %d words, want %d", len(f), words)
	}
	return f
}

// TestFramePoolRetention pins the retention rule: a size hands out its
// most recently put frame, the pool holds at most twice the live peak and
// unmaps the least recently put frames first when it would hold more,
// one-off sizes go at the end of the first epoch without a draw of them
// while a reused size stays, and close unmaps every idle frame and every
// frame put after it.
func TestFramePoolRetention(t *testing.T) {
	reg := obs.NewRegistry()
	p := newFramePool(reg)
	idleWords := reg.Gauge("serve.frames.idle_words")
	cycle := func(words int) {
		t.Helper()
		p.put(getFrame(t, p, words))
	}

	a := getFrame(t, p, 64)
	for i := range a {
		a[i] = float64(i)
	}
	p.put(a)
	if b := getFrame(t, p, 64); &b[0] != &a[0] {
		t.Fatal("a put frame was not reused for the next draw of its size")
	}
	if fresh, reused := reg.Counter("serve.frames.fresh").Value(), reg.Counter("serve.frames.reused").Value(); fresh != 1 || reused != 1 {
		t.Fatalf("fresh=%d reused=%d, want 1 and 1", fresh, reused)
	}
	b := getFrame(t, p, 64) // live peak: 128 words
	p.put(a, b)
	if c := getFrame(t, p, 64); &c[0] != &b[0] {
		t.Fatal("a draw did not take the most recently put frame of its size")
	} else {
		p.put(c)
	}

	// 100 words drawn alone fit: 228 words held, within twice the peak.
	// 200 words drawn alone raise the peak to 200, and the 428 words held
	// would exceed 400, so the least recently put frame, a, is unmapped.
	cycle(100)
	cycle(200)
	idle := idleFrames(t, p)
	if _, ok := idle[&a[0]]; ok || len(idle) != 3 || idleWords.Value() != 364 {
		t.Fatalf("%d idle frames, %d idle words: want b, 100 and 200 words, 364", len(idle), idleWords.Value())
	}

	// The 100- and 200-word sizes were never reused. The epoch they were
	// drawn in ends at the next draw (364 words drawn, 364 held), the next
	// one six 64-word draws later, and then they are unmapped; the reused
	// 64-word size stays.
	for i := 1; i <= 7; i++ {
		cycle(64)
		if gone := idleWords.Value() == 64; gone != (i == 7) {
			t.Fatalf("draw %d: %d idle words", i, idleWords.Value())
		}
	}
	for i := 0; i < 50; i++ {
		cycle(32)
	}
	if _, ok := idleFrames(t, p)[&b[0]]; !ok {
		t.Fatal("the reused 64-word size was unmapped")
	}

	live := getFrame(t, p, 64)
	p.close()
	if got := idleWords.Value(); got != 0 {
		t.Fatalf("idle words %d after close, want 0", got)
	}
	p.put(live)
	if got := reg.Gauge("serve.frames.live_words").Value(); got != 0 {
		t.Fatalf("live words %d after the last put, want 0", got)
	}
	if p.held != 0 || len(p.sizes) != 0 {
		t.Fatalf("%d frames of %d sizes still mapped after close", p.held, len(p.sizes))
	}
}

// TestFramePoolDistinctSizesBounded: traffic in which no shape ever
// repeats keeps the pool within twice the live peak. Rounds of four
// frames live at once, every one of a size not drawn before, never leave
// more than that many words held, nor more idle frames than it divided by
// the smallest size, nor a size entry without frames.
func TestFramePoolDistinctSizesBounded(t *testing.T) {
	const live, rounds, minWords = 4, 400, 2048
	reg := obs.NewRegistry()
	p := newFramePool(reg)
	next := minWords
	for r := 0; r < rounds; r++ {
		var frames [live][]float64
		for i := range frames {
			frames[i] = getFrame(t, p, next)
			next++
		}
		p.put(frames[:]...)
		idle := idleFrames(t, p)
		if bound := int(2 * p.peak / minWords); len(idle) > bound || len(p.sizes) > bound {
			t.Fatalf("round %d: %d idle frames of %d sizes, over the %d twice the live peak allows", r, len(idle), len(p.sizes), bound)
		}
	}
	if most := int64(live * next); p.peak > most {
		t.Fatalf("live peak %d over the %d words ever live at once", p.peak, most)
	}
	if fresh := reg.Counter("serve.frames.fresh").Value(); fresh != live*rounds {
		t.Fatalf("%d fresh frames, want one per draw (%d)", fresh, live*rounds)
	}
	p.close()
	if p.held != 0 || p.idleWords != 0 {
		t.Fatalf("%d frames, %d idle words left after close", p.held, p.idleWords)
	}
}

func TestFramePoolDoublePutPanics(t *testing.T) {
	p := newFramePool(obs.NewRegistry())
	defer p.close()
	f, err := p.get(8)
	if err != nil {
		t.Fatal(err)
	}
	p.put(f)
	defer func() {
		if recover() == nil {
			t.Fatal("a frame put twice was accepted")
		}
	}()
	p.put(f)
}

// newH2CServer serves a new Server over h2c, as perfbench's serve_mix
// does, and returns a client holding one connection to it. Both are torn
// down with the test.
func newH2CServer(tb testing.TB, opts *Options) (*Server, *Client) {
	tb.Helper()
	srv := New(opts)
	return srv, serveH2C(tb, srv, srv.Handler())
}

// serveH2C serves h, which fronts srv, over h2c and returns a client
// holding one connection to it. Both are torn down with the test.
func serveH2C(tb testing.TB, srv *Server, h http.Handler) *Client {
	tb.Helper()
	tr := &http.Transport{}
	if !EnableH2C(nil, tr) {
		srv.Close()
		tb.Skip("h2c needs go1.24")
	}
	ts := httptest.NewUnstartedServer(h)
	EnableH2C(ts.Config, nil)
	ts.Start()
	tb.Cleanup(func() {
		tr.CloseIdleConnections()
		ts.Close()
		srv.Close()
	})
	return &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: tr}}
}

// mixShapes are the serve_mix request shapes (perfbench/serve.go).
var mixShapes = []GEMMRequest{
	{M: 64, K: 64, N: 64, Alpha: 1},
	{M: 96, K: 96, N: 96, Alpha: 1},
	{M: 128, K: 96, N: 64, Alpha: 1},
	{M: 192, K: 192, N: 192, TransB: blas.Trans, Alpha: 1, Beta: 0.5},
}

func withOperands(rng *rand.Rand, req GEMMRequest) *GEMMRequest {
	req.A = randFloats(rng, req.M*req.K)
	req.B = randFloats(rng, req.K*req.N)
	if req.Beta != 0 {
		req.C = randFloats(rng, req.M*req.N)
	}
	return &req
}

// TestServeSteadyStateReusesFrames: once a sequential mix has been served
// at its live peak, serving it again maps no fresh frame, and every
// response still matches the sequential reference. The first round sets
// the peak; frames it unmapped while the peak was still lower are mapped
// again in the second, and from the third on every draw is a reuse.
func TestServeSteadyStateReusesFrames(t *testing.T) {
	srv, ts := newTestServer(t, &Options{Workers: 1, CoalesceWindow: -1})
	cl := &Client{BaseURL: ts.URL}
	rng := rand.New(rand.NewSource(51))
	var reqs []*GEMMRequest
	var want [][]float64
	for _, shape := range mixShapes {
		r := withOperands(rng, shape)
		reqs, want = append(reqs, r), append(want, referenceGEMM(nil, r))
	}
	fresh := srv.Collector().Registry.Counter("serve.frames.fresh")
	round := func() int64 {
		before := fresh.Value()
		for i, r := range reqs {
			res, err := cl.GEMM(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(res.C, want[i]) {
				t.Fatalf("%d×%d×%d: result differs from sequential DGEFMM", r.M, r.K, r.N)
			}
			waitIdle(t, srv)
		}
		return fresh.Value() - before
	}
	if n := round(); n == 0 {
		t.Fatal("the first round mapped no frames")
	}
	round()
	for i := 3; i <= 5; i++ {
		if n := round(); n != 0 {
			t.Fatalf("round %d mapped %d fresh frames, want 0", i, n)
		}
	}
	idleFrames(t, srv.frames)
}

// TestServeRecycledFrameBetaZero: a β = 0 request whose C frame is
// recycled, and so holds the previous request's result (NaN under the
// poison build tag), gives the sequential result bit for bit, on a shape
// the batch pool multiplies directly and on one that recurses.
func TestServeRecycledFrameBetaZero(t *testing.T) {
	cfg := &strassen.Config{Kernel: kernel.Default(), Criterion: strassen.Simple{Tau: 32}}
	srv, ts := newTestServer(t, &Options{Workers: 2, CoalesceWindow: -1, Config: cfg})
	cl := &Client{BaseURL: ts.URL}
	rng := rand.New(rand.NewSource(52))
	reused := srv.Collector().Registry.Counter("serve.frames.reused")
	for _, shape := range []GEMMRequest{
		{M: 24, K: 20, N: 12, Alpha: 1},                     // below τ: one leaf
		{M: 96, K: 96, N: 96, Alpha: -1.5},                  // two levels
		{M: 65, K: 67, N: 63, TransA: blas.Trans, Alpha: 1}, // odd, peeled or padded
	} {
		for i := 0; i < 3; i++ {
			req := withOperands(rng, shape)
			before := reused.Value()
			res, err := cl.GEMM(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(res.C, referenceGEMM(cfg, req)) {
				t.Fatalf("%d×%d×%d, round %d: result differs from sequential DGEFMM", shape.M, shape.K, shape.N, i)
			}
			waitIdle(t, srv)
			if i > 0 && reused.Value()-before != 3 {
				t.Fatalf("%d×%d×%d, round %d: %d frames reused, want 3", shape.M, shape.K, shape.N, i, reused.Value()-before)
			}
		}
	}
	depth := 0
	for _, p := range srv.Pool().Plans() {
		depth = max(depth, p.Depth)
	}
	if depth < 2 {
		t.Fatalf("deepest plan has depth %d, want a recursing shape", depth)
	}
}

// TestServeDeadlineFramesRace runs requests whose deadline expires while
// they wait, queue or multiply next to same-shape requests with no
// deadline. Every 200 matches sequential DGEFMM bit for bit, the frames of
// the abandoned calls come back only after those calls finish (live words
// return to 0 once the server is idle), and no frame sits on a free list
// twice. Run it under -race: the race detector does not see the frames'
// own memory, which is mapped outside the Go heap, but it does see the
// pool's bookkeeping and the hand-off from the handler to the flusher.
func TestServeDeadlineFramesRace(t *testing.T) {
	cfg := &strassen.Config{Kernel: kernel.Default(), Criterion: strassen.Simple{Tau: 16}}
	srv, cl := newH2CServer(t, &Options{Workers: 2, CoalesceWindow: time.Millisecond, Config: cfg})

	rng := rand.New(rand.NewSource(53))
	type job struct {
		req  *GEMMRequest
		want []float64
	}
	var jobs []job
	for _, shape := range []GEMMRequest{
		{M: 64, K: 64, N: 64, Alpha: 1},
		{M: 48, K: 80, N: 40, Alpha: 1, Beta: 0.5},
	} {
		for v := 0; v < 2; v++ {
			r := withOperands(rng, shape)
			jobs = append(jobs, job{r, referenceGEMM(cfg, r)})
		}
	}

	const callers, calls = 8, 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, expired := 0, 0
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				j := jobs[(g+i)%len(jobs)]
				ctx, cancel := context.WithCancel(context.Background())
				if g%2 == 1 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%3)*time.Millisecond)
				}
				res, err := cl.GEMM(ctx, j.req)
				cancel()
				if err != nil {
					var he *HTTPError
					if g%2 == 0 || !(errors.Is(err, context.DeadlineExceeded) ||
						errors.As(err, &he) && he.Status == http.StatusGatewayTimeout) {
						t.Errorf("caller %d call %d: %v", g, i, err)
					}
					mu.Lock()
					expired++
					mu.Unlock()
					continue
				}
				if !sameBits(res.C, j.want) {
					t.Errorf("caller %d call %d: result differs from sequential DGEFMM", g, i)
				}
				mu.Lock()
				ok++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	// A 1 ms deadline cannot outlast the 1 ms coalesce window, so some
	// requests always expire.
	if expired == 0 {
		t.Fatalf("all %d requests were answered; the deadline path did not run", ok)
	}
	t.Logf("%d answered, %d expired", ok, expired)

	waitIdle(t, srv)
	idleFrames(t, srv.frames)
}

// writeErrors counts the response writes that fail.
type writeErrors struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w writeErrors) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	if err != nil {
		w.n.Add(1)
	}
	return n, err
}

// TestServeCutOffResponsesReturnFrames: a client that stops reading a
// response makes the server's write of C fail. Those C frames go back to
// the pool like any other, are reused by the next request of their size,
// and Close unmaps every one of them. The 8 MiB result is twice the
// client's per-stream HTTP/2 window, so the server's write blocks until
// the client resets the stream.
func TestServeCutOffResponsesReturnFrames(t *testing.T) {
	srv := New(&Options{Workers: 1, CoalesceWindow: -1})
	var failed atomic.Int64
	cl := serveH2C(t, srv, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(writeErrors{w, &failed}, r)
	}))
	rng := rand.New(rand.NewSource(55))
	req := withOperands(rng, GEMMRequest{M: 1024, K: 1, N: 1024, Alpha: 1})
	hdr := &ReqHeader{M: req.M, N: req.N, K: req.K, TransA: "N", TransB: "N", Alpha: 1}
	var body bytes.Buffer
	if err := EncodeRequest(&body, hdr, req.A, req.B, nil); err != nil {
		t.Fatal(err)
	}

	const cuts = 3
	for i := 0; i < cuts; i++ {
		resp, err := cl.HTTPClient.Post(cl.BaseURL+"/v1/gemm", ContentType, bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cut %d: status %d", i, resp.StatusCode)
		}
		if _, err := io.ReadFull(resp.Body, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitIdle(t, srv)
		if failed.Load() != int64(i+1) {
			t.Fatalf("cut %d: %d failed response writes, want %d", i, failed.Load(), i+1)
		}
	}
	cWords := int64(req.M * req.N)
	if idle := srv.frames.stats().IdleWords; idle < cWords {
		t.Fatalf("%d idle frame words after the cut-off responses, want the %d-word C among them", idle, cWords)
	}
	if fresh := srv.Collector().Registry.Counter("serve.frames.fresh").Value(); fresh != 3 {
		t.Fatalf("%d fresh frames over %d same-shape requests, want 3", fresh, cuts)
	}

	res, err := cl.GEMM(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(res.C, referenceGEMM(nil, req)) {
		t.Fatal("the request after the cut-off ones differs from sequential DGEFMM")
	}
	waitIdle(t, srv)
	idleFrames(t, srv.frames)

	srv.Close()
	if st := srv.frames.stats(); st.IdleWords != 0 || st.LiveWords != 0 || srv.frames.held != 0 {
		t.Fatalf("after Close: %d idle and %d live words, %d frames mapped", st.IdleWords, st.LiveWords, srv.frames.held)
	}
}

// waitIdle waits until every frame the server handed out is back. A
// client can finish reading a response before the handler that wrote it
// has returned and put its frames.
func waitIdle(t *testing.T, srv *Server) {
	t.Helper()
	live := srv.Collector().Registry.Gauge("serve.frames.live_words")
	deadline := time.Now().Add(10 * time.Second)
	for live.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d frame words still live with the server idle", live.Value())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkServeGEMM is one in-process h2c round trip per iteration on
// each serve_mix shape: client encode, server decode into its frames, the
// batch multiply, the response and the client's decode. B/op and
// allocs/op count both ends; frame-B/op is the bytes of the request's A,
// B and C frames, what the server allocated per request before its frames
// came from the free list.
func BenchmarkServeGEMM(b *testing.B) {
	_, cl := newH2CServer(b, &Options{Workers: 1, CoalesceWindow: -1})
	rng := rand.New(rand.NewSource(54))
	for _, shape := range mixShapes {
		req := withOperands(rng, shape)
		name := shapeName(req)
		b.Run(name, func(b *testing.B) {
			if _, err := cl.GEMM(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.GEMM(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
			words := req.M*req.K + req.K*req.N + req.M*req.N
			b.ReportMetric(float64(8*words), "frame-B/op")
		})
	}
}

func shapeName(r *GEMMRequest) string {
	if r.Beta != 0 {
		return fmt.Sprintf("%dx%dx%d_beta", r.M, r.K, r.N)
	}
	return fmt.Sprintf("%dx%dx%d", r.M, r.K, r.N)
}
