// Package serve is the network front end over the batched DGEFMM engine:
// an HTTP service exposing GEMM calls with same-shape request coalescing
// into internal/batch shape buckets, admission control and backpressure,
// per-tenant token-bucket quotas, request-deadline propagation down to
// batch cancellation, and an out-of-core tiled path for operands too large
// to hold in a single in-core workspace (internal/outofcore).
//
// The wire protocol is JSON control plus binary operand frames. One GEMM
// call travels as one POST body:
//
//	magic   "DGF1" (4 bytes)
//	hdrlen  uint32 big-endian — length of the JSON header that follows
//	header  JSON (ReqHeader): dimensions, transposes, scalars
//	A       float64 little-endian, row-major, tightly packed
//	B       float64 little-endian, row-major, tightly packed
//	C       present iff beta != 0 (the accumulation input)
//
// and the response mirrors it: magic "DGR1", a JSON RespHeader, then the
// m×n result frame iff the status is ok. Operand frames are row-major
// because that is what network clients naturally hold; the server maps
// them onto the engine's column-major BLAS convention without a transpose
// pass via the identity Cᵀ = α·op(B)ᵀ·op(A)ᵀ + β·Cᵀ (a row-major r×c
// matrix is byte-identical to its column-major c×r transpose).
//
// Observability rides on the same mux: the obs debug surface (/debug/vars,
// /debug/pprof, /metrics, /openmetrics, /trace, /spans) is mounted next to
// /v1/gemm, so the service is born with a live dashboard.
package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"unsafe"

	"repro/internal/blas"
)

// ContentType is the media type of request and response bodies.
const ContentType = "application/x-dgefmm"

var (
	reqMagic  = [4]byte{'D', 'G', 'F', '1'}
	respMagic = [4]byte{'D', 'G', 'R', '1'}
)

// Limits bounds what the decoder accepts; the zero value of any field
// selects its default. They are the wire format's defense against
// dimension overflow and memory-bomb headers.
type Limits struct {
	// MaxDim caps each of m, n, k. Default 65536; hard-capped at 2^24 so
	// operand word counts cannot overflow int64 arithmetic.
	MaxDim int
	// MaxOperandWords caps each operand frame's float64 count (m·k, k·n,
	// m·n). Default 2^26 (512 MiB per frame).
	MaxOperandWords int64
	// MaxHeaderBytes caps the JSON header length. Default 4096.
	MaxHeaderBytes int
}

// DefaultLimits are the server defaults.
var DefaultLimits = Limits{MaxDim: 1 << 16, MaxOperandWords: 1 << 26, MaxHeaderBytes: 1 << 12}

func (l Limits) withDefaults() Limits {
	if l.MaxDim <= 0 {
		l.MaxDim = DefaultLimits.MaxDim
	}
	if l.MaxDim > 1<<24 {
		l.MaxDim = 1 << 24
	}
	if l.MaxOperandWords <= 0 {
		l.MaxOperandWords = DefaultLimits.MaxOperandWords
	}
	if l.MaxHeaderBytes <= 0 {
		l.MaxHeaderBytes = DefaultLimits.MaxHeaderBytes
	}
	return l
}

// ReqHeader is the JSON control header of a GEMM request: compute
// C ← alpha·op(A)·op(B) + beta·C with op(A) M×K and op(B) K×N. TransA and
// TransB are "N" (or empty) for the identity and "T" for the transpose,
// matching the BLAS character arguments.
type ReqHeader struct {
	M      int     `json:"m"`
	N      int     `json:"n"`
	K      int     `json:"k"`
	TransA string  `json:"transA,omitempty"`
	TransB string  `json:"transB,omitempty"`
	Alpha  float64 `json:"alpha"`
	Beta   float64 `json:"beta,omitempty"`
}

func parseTrans(s, which string) (blas.Transpose, error) {
	switch s {
	case "", "N", "n":
		return blas.NoTrans, nil
	case "T", "t":
		return blas.Trans, nil
	}
	return 0, fmt.Errorf("serve: bad %s %q (want N or T)", which, s)
}

func (h *ReqHeader) transA() blas.Transpose { t, _ := parseTrans(h.TransA, "transA"); return t }
func (h *ReqHeader) transB() blas.Transpose { t, _ := parseTrans(h.TransB, "transB"); return t }

// WordsA/WordsB/WordsC are the operand frame sizes in float64 words. The
// stored operand always has r·c = M·K (resp. K·N) elements regardless of
// the transpose flag.
func (h *ReqHeader) WordsA() int64 { return int64(h.M) * int64(h.K) }
func (h *ReqHeader) WordsB() int64 { return int64(h.K) * int64(h.N) }
func (h *ReqHeader) WordsC() int64 { return int64(h.M) * int64(h.N) }

// Validate checks the header against the limits: dimension range (which
// also rules out word-count overflow), transpose flags, finite scalars.
func (h *ReqHeader) Validate(lim Limits) error {
	lim = lim.withDefaults()
	for _, d := range [...]struct {
		name string
		v    int
	}{{"m", h.M}, {"n", h.N}, {"k", h.K}} {
		if d.v < 1 || d.v > lim.MaxDim {
			return fmt.Errorf("serve: dimension %s=%d out of range [1, %d]", d.name, d.v, lim.MaxDim)
		}
	}
	if _, err := parseTrans(h.TransA, "transA"); err != nil {
		return err
	}
	if _, err := parseTrans(h.TransB, "transB"); err != nil {
		return err
	}
	for _, s := range [...]struct {
		name string
		v    float64
	}{{"alpha", h.Alpha}, {"beta", h.Beta}} {
		if math.IsNaN(s.v) || math.IsInf(s.v, 0) {
			return fmt.Errorf("serve: %s must be finite", s.name)
		}
	}
	for _, f := range [...]struct {
		name  string
		words int64
	}{{"A", h.WordsA()}, {"B", h.WordsB()}, {"C", h.WordsC()}} {
		if f.words > lim.MaxOperandWords {
			return fmt.Errorf("serve: operand %s needs %d words, over the %d limit", f.name, f.words, lim.MaxOperandWords)
		}
	}
	return nil
}

// DecodeHeader reads and validates the request preamble and JSON header,
// leaving r positioned at the first operand frame.
func DecodeHeader(r io.Reader, lim Limits) (*ReqHeader, error) {
	lim = lim.withDefaults()
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("serve: short request preamble: %w", err)
	}
	if !bytes.Equal(pre[:4], reqMagic[:]) {
		return nil, fmt.Errorf("serve: bad request magic %q", pre[:4])
	}
	n := binary.BigEndian.Uint32(pre[4:])
	if n == 0 || n > uint32(lim.MaxHeaderBytes) {
		return nil, fmt.Errorf("serve: header length %d out of range (1..%d)", n, lim.MaxHeaderBytes)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("serve: truncated header: %w", err)
	}
	h := new(ReqHeader)
	if err := json.Unmarshal(buf, h); err != nil {
		return nil, fmt.Errorf("serve: header: %w", err)
	}
	if err := h.Validate(lim); err != nil {
		return nil, err
	}
	return h, nil
}

// nativeLE reports whether float64 memory is little-endian, the wire's
// byte order. Then a frame is the byte image of its []float64 and moves
// with no per-element conversion and no staging copy.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordBytes views v's backing array as bytes, in native byte order.
func wordBytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// swapWords reverses the bytes of every 8-byte word of b in place,
// converting between the little-endian wire and big-endian memory.
func swapWords(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.BigEndian.PutUint64(b[i:], binary.LittleEndian.Uint64(b[i:]))
	}
}

// ReadFrame reads words little-endian float64s from r into a fresh slice.
func ReadFrame(r io.Reader, words int64, what string) ([]float64, error) {
	out := make([]float64, words)
	if err := ReadFrameInto(r, out, what); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFrameInto fills dst with little-endian float64s from r, reading
// straight into dst's memory. On error dst holds a partial frame.
func ReadFrameInto(r io.Reader, dst []float64, what string) error {
	b := wordBytes(dst)
	if n, err := io.ReadFull(r, b); err != nil {
		return fmt.Errorf("serve: truncated %s frame at word %d of %d: %w", what, n/8, len(dst), err)
	}
	if !nativeLE {
		swapWords(b)
	}
	return nil
}

// swapChunk is the float64 count per write on big-endian hosts, whose
// frames are converted through a buffer so the source is never mutated.
const swapChunk = 4096

// WriteFrame writes the slice as little-endian float64s. On little-endian
// hosts that is one write of src's memory.
func WriteFrame(w io.Writer, src []float64) error {
	if nativeLE {
		_, err := w.Write(wordBytes(src))
		return err
	}
	buf := make([]byte, 8*min(len(src), swapChunk))
	for len(src) > 0 {
		n := min(len(src), swapChunk)
		b := buf[:copy(buf, wordBytes(src[:n]))]
		swapWords(b)
		if _, err := w.Write(b); err != nil {
			return err
		}
		src = src[n:]
	}
	return nil
}

// Request is a fully decoded in-core GEMM request. Operand slices hold the
// wire layout: row-major, tightly packed.
type Request struct {
	ReqHeader
	A, B []float64
	// C is the accumulation input; non-nil iff Beta != 0.
	C []float64
}

// DecodeRequest decodes a complete request body: header, operand frames,
// and an end-of-body check (trailing bytes are an error — a frame-length
// mismatch must not pass silently).
func DecodeRequest(r io.Reader, lim Limits) (*Request, error) {
	h, err := DecodeHeader(r, lim)
	if err != nil {
		return nil, err
	}
	req := &Request{ReqHeader: *h, A: make([]float64, h.WordsA()), B: make([]float64, h.WordsB())}
	if h.Beta != 0 {
		req.C = make([]float64, h.WordsC())
	}
	if err := readOperands(r, h, req.A, req.B, req.C); err != nil {
		return nil, err
	}
	return req, nil
}

// readOperands fills a, b and, when beta != 0, c from r, positioned after
// the header, and checks that the body ends there.
func readOperands(r io.Reader, h *ReqHeader, a, b, c []float64) error {
	if err := ReadFrameInto(r, a, "A"); err != nil {
		return err
	}
	if err := ReadFrameInto(r, b, "B"); err != nil {
		return err
	}
	if h.Beta != 0 {
		if err := ReadFrameInto(r, c, "C"); err != nil {
			return err
		}
	}
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err == nil {
		return errors.New("serve: trailing bytes after operand frames")
	}
	return nil
}

// EncodeRequest writes a request body in the wire format. The operand
// slices must match the header's frame sizes; c must be non-nil iff
// beta != 0.
func EncodeRequest(w io.Writer, h *ReqHeader, a, b, c []float64) error {
	parts, err := requestParts(h, a, b, c)
	if err != nil {
		return err
	}
	_, err = parts.WriteTo(w)
	return err
}

// requestParts validates a request and lays out its body: the preamble
// and JSON header, then one part per operand frame. On little-endian hosts
// the frame parts are views of a, b and c, not copies.
func requestParts(h *ReqHeader, a, b, c []float64) (net.Buffers, error) {
	if err := h.Validate(Limits{}); err != nil {
		return nil, err
	}
	if int64(len(a)) != h.WordsA() || int64(len(b)) != h.WordsB() {
		return nil, fmt.Errorf("serve: operand length mismatch: len(A)=%d want %d, len(B)=%d want %d",
			len(a), h.WordsA(), len(b), h.WordsB())
	}
	if h.Beta != 0 && int64(len(c)) != h.WordsC() {
		return nil, fmt.Errorf("serve: len(C)=%d, want %d (beta != 0)", len(c), h.WordsC())
	}
	if h.Beta == 0 && c != nil {
		return nil, errors.New("serve: C frame present with beta == 0")
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	var pre bytes.Buffer
	_ = writePreamble(&pre, reqMagic, hdr) // a bytes.Buffer write cannot fail
	parts := net.Buffers{pre.Bytes()}
	frames := [][]float64{a, b}
	if h.Beta != 0 {
		frames = append(frames, c)
	}
	for _, f := range frames {
		if nativeLE {
			parts = append(parts, wordBytes(f))
			continue
		}
		var buf bytes.Buffer
		_ = WriteFrame(&buf, f)
		parts = append(parts, buf.Bytes())
	}
	return parts, nil
}

// RespHeader is the JSON control header of a response.
type RespHeader struct {
	// Status is "ok" or "error".
	Status string `json:"status"`
	// Error carries the failure detail when Status is "error".
	Error string `json:"error,omitempty"`
	// Batched is the size of the coalesced batch this call rode in (1 =
	// it ran alone). Load generators derive the coalesce ratio from it.
	Batched int `json:"batched,omitempty"`
	// OutOfCore marks calls routed through the tiled out-of-core path.
	OutOfCore bool `json:"outOfCore,omitempty"`
	// ElapsedNs is the server-side latency from admission to result.
	ElapsedNs int64 `json:"elapsedNs,omitempty"`
}

func writePreamble(w io.Writer, magic [4]byte, hdr []byte) error {
	var pre [8]byte
	copy(pre[:4], magic[:])
	binary.BigEndian.PutUint32(pre[4:], uint32(len(hdr)))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	_, err := w.Write(hdr)
	return err
}

// writeRespHeader emits the response preamble; the C frame (if any)
// follows via WriteFrame — split so the out-of-core path can stream the
// result band by band without materializing it.
func writeRespHeader(w io.Writer, h *RespHeader) error {
	hdr, err := json.Marshal(h)
	if err != nil {
		return err
	}
	return writePreamble(w, respMagic, hdr)
}

// EncodeResponse writes a complete response: header plus, when Status is
// "ok", the result frame.
func EncodeResponse(w io.Writer, h *RespHeader, c []float64) error {
	if err := writeRespHeader(w, h); err != nil {
		return err
	}
	if h.Status == "ok" {
		return WriteFrame(w, c)
	}
	return nil
}

// DecodeResponse reads a response; words is the expected result frame size
// (the caller knows m·n). On Status "error" the result slice is nil and
// the header carries the detail.
func DecodeResponse(r io.Reader, lim Limits, words int64) (*RespHeader, []float64, error) {
	lim = lim.withDefaults()
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, nil, fmt.Errorf("serve: short response preamble: %w", err)
	}
	if !bytes.Equal(pre[:4], respMagic[:]) {
		return nil, nil, fmt.Errorf("serve: bad response magic %q", pre[:4])
	}
	n := binary.BigEndian.Uint32(pre[4:])
	if n == 0 || n > uint32(lim.MaxHeaderBytes) {
		return nil, nil, fmt.Errorf("serve: response header length %d out of range", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, nil, fmt.Errorf("serve: truncated response header: %w", err)
	}
	h := new(RespHeader)
	if err := json.Unmarshal(buf, h); err != nil {
		return nil, nil, fmt.Errorf("serve: response header: %w", err)
	}
	if h.Status != "ok" {
		return h, nil, nil
	}
	c, err := ReadFrame(r, words, "C")
	if err != nil {
		return nil, nil, err
	}
	return h, c, nil
}
