package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/blas"
)

// GEMMRequest is a client-side GEMM call: C ← Alpha·op(A)·op(B) + Beta·C
// with op(A) M×K and op(B) K×N. Operands are row-major, tightly packed;
// C is required iff Beta != 0.
//
// Client.GEMM sends A, B and C from their own memory, without copying
// them into a request buffer, so the caller must not modify them while
// the call runs. Once GEMM returns, with or without an error, the
// transport has closed the request body and the caller owns them again.
// The result is written to a fresh slice, never into C.
type GEMMRequest struct {
	TransA, TransB blas.Transpose
	M, N, K        int
	Alpha, Beta    float64
	A, B, C        []float64
}

// GEMMResult is a successful call's outcome.
type GEMMResult struct {
	// C is the m×n row-major result.
	C []float64
	// Batched is the size of the server-side coalesced batch the call
	// rode in.
	Batched int
	// OutOfCore marks results computed by the tiled out-of-core path.
	OutOfCore bool
	// Latency is the client-observed round-trip time.
	Latency time.Duration
}

// HTTPError is a non-200 response: quota or backpressure rejections
// surface as StatusTooManyRequests with a RetryAfter hint, expired
// deadlines as StatusGatewayTimeout.
type HTTPError struct {
	Status     int
	RetryAfter time.Duration
	Body       string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Status, strings.TrimSpace(e.Body))
}

// Throttled reports whether the error is a 429 rejection.
func (e *HTTPError) Throttled() bool { return e.Status == http.StatusTooManyRequests }

// Client calls a dgefmmd service.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8433".
	BaseURL string
	// HTTPClient overrides http.DefaultClient (timeouts, transports).
	HTTPClient *http.Client
	// Tenant is sent as X-Tenant for quota accounting; empty means the
	// server's "anonymous" tenant.
	Tenant string
	// Limits bounds response decoding; zero selects DefaultLimits.
	Limits Limits
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func transString(t blas.Transpose) string {
	if t.IsTrans() {
		return "T"
	}
	return "N"
}

// GEMM performs one call. A context deadline is propagated to the server
// as the X-Deadline-Ms budget, so the server's batch layer can cancel the
// call if it cannot start in time.
func (c *Client) GEMM(ctx context.Context, req *GEMMRequest) (*GEMMResult, error) {
	hdr := &ReqHeader{
		M: req.M, N: req.N, K: req.K,
		TransA: transString(req.TransA), TransB: transString(req.TransB),
		Alpha: req.Alpha, Beta: req.Beta,
	}
	parts, err := requestParts(hdr, req.A, req.B, req.C)
	if err != nil {
		return nil, err
	}

	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(c.BaseURL, "/")+"/v1/gemm", nil)
	if err != nil {
		return nil, err
	}
	// The transport closes every body it was handed, possibly after Do
	// returns; waiting for that hands A, B and C back to the caller.
	var open sync.WaitGroup
	defer open.Wait()
	newBody := func() io.ReadCloser {
		open.Add(1)
		return &requestBody{rest: append(net.Buffers(nil), parts...), done: open.Done}
	}
	httpReq.Body = newBody()
	httpReq.GetBody = func() (io.ReadCloser, error) { return newBody(), nil }
	for _, p := range parts {
		httpReq.ContentLength += int64(len(p))
	}
	httpReq.Header.Set("Content-Type", ContentType)
	if c.Tenant != "" {
		httpReq.Header.Set("X-Tenant", c.Tenant)
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		httpReq.Header.Set("X-Deadline-Ms", strconv.FormatInt(ms, 10))
	}

	start := time.Now()
	resp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		text, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		he := &HTTPError{Status: resp.StatusCode, Body: string(text)}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				he.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, he
	}

	rh, out, err := DecodeResponse(resp.Body, c.Limits, hdr.WordsC())
	if err != nil {
		return nil, err
	}
	if rh.Status != "ok" {
		return nil, fmt.Errorf("serve: server error: %s", rh.Error)
	}
	return &GEMMResult{
		C:         out,
		Batched:   rh.Batched,
		OutOfCore: rh.OutOfCore,
		Latency:   time.Since(start),
	}, nil
}

// requestBody streams a request's parts to the transport. Close waits out
// a Read in progress and stops later ones before it reports the body
// closed, so once done runs the operand memory behind the parts is no
// longer touched.
type requestBody struct {
	mu     sync.Mutex
	rest   net.Buffers
	closed bool
	done   func()
}

func (b *requestBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, errBodyClosed
	}
	return b.rest.Read(p)
}

func (b *requestBody) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		b.done()
	}
	return nil
}

var errBodyClosed = errors.New("serve: read from closed request body")
