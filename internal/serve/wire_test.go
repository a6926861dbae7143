package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func randFloats(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

func TestRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []ReqHeader{
		{M: 4, N: 3, K: 5, Alpha: 1},
		{M: 1, N: 1, K: 1, Alpha: -2.5, Beta: 0.5},
		{M: 7, N: 2, K: 9, TransA: "T", Alpha: 1},
		{M: 2, N: 8, K: 3, TransB: "T", Alpha: 0.25, Beta: 1},
		{M: 5, N: 5, K: 5, TransA: "T", TransB: "T", Alpha: 1, Beta: -1},
	}
	for _, h := range cases {
		a := randFloats(rng, int(h.WordsA()))
		b := randFloats(rng, int(h.WordsB()))
		var c []float64
		if h.Beta != 0 {
			c = randFloats(rng, int(h.WordsC()))
		}
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, &h, a, b, c); err != nil {
			t.Fatalf("%+v: encode: %v", h, err)
		}
		got, err := DecodeRequest(bytes.NewReader(buf.Bytes()), Limits{})
		if err != nil {
			t.Fatalf("%+v: decode: %v", h, err)
		}
		if got.ReqHeader != h {
			t.Fatalf("header round trip: got %+v, want %+v", got.ReqHeader, h)
		}
		if !reflect.DeepEqual(got.A, a) || !reflect.DeepEqual(got.B, b) {
			t.Fatalf("%+v: operand frames corrupted", h)
		}
		if h.Beta != 0 && !reflect.DeepEqual(got.C, c) {
			t.Fatalf("%+v: C frame corrupted", h)
		}
		if h.Beta == 0 && got.C != nil {
			t.Fatalf("%+v: C frame decoded despite beta == 0", h)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	c := randFloats(rng, 12)
	var buf bytes.Buffer
	in := &RespHeader{Status: "ok", Batched: 3, OutOfCore: true, ElapsedNs: 12345}
	if err := EncodeResponse(&buf, in, c); err != nil {
		t.Fatal(err)
	}
	h, got, err := DecodeResponse(bytes.NewReader(buf.Bytes()), Limits{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if *h != *in {
		t.Fatalf("header: got %+v, want %+v", h, in)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatal("result frame corrupted")
	}

	buf.Reset()
	if err := EncodeResponse(&buf, &RespHeader{Status: "error", Error: "boom"}, nil); err != nil {
		t.Fatal(err)
	}
	h, got, err = DecodeResponse(bytes.NewReader(buf.Bytes()), Limits{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "error" || h.Error != "boom" || got != nil {
		t.Fatalf("error response: %+v, frame %v", h, got)
	}
}

func TestDecodeRejections(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		h := ReqHeader{M: 2, N: 2, K: 2, Alpha: 1}
		a := make([]float64, 4)
		b := make([]float64, 4)
		if err := EncodeRequest(&buf, &h, a, b, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cases := []struct {
		name string
		body func() []byte
		want string
	}{
		{"empty", func() []byte { return nil }, "preamble"},
		{"bad magic", func() []byte {
			b := valid()
			b[0] = 'X'
			return b
		}, "magic"},
		{"zero header length", func() []byte {
			b := valid()
			binary.BigEndian.PutUint32(b[4:], 0)
			return b
		}, "length"},
		{"oversized header length", func() []byte {
			b := valid()
			binary.BigEndian.PutUint32(b[4:], 1<<30)
			return b
		}, "length"},
		{"truncated frame", func() []byte {
			b := valid()
			return b[:len(b)-5]
		}, "truncated"},
		{"trailing bytes", func() []byte {
			return append(valid(), 0xFF)
		}, "trailing"},
		{"bad json", func() []byte {
			var buf bytes.Buffer
			writePreamble(&buf, reqMagic, []byte("{not json"))
			return buf.Bytes()
		}, "header"},
	}
	for _, tc := range cases {
		_, err := DecodeRequest(bytes.NewReader(tc.body()), Limits{})
		if err == nil {
			t.Fatalf("%s: decode succeeded", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	lim := Limits{MaxDim: 100, MaxOperandWords: 500}
	cases := []struct {
		name string
		h    ReqHeader
		ok   bool
	}{
		{"valid", ReqHeader{M: 10, N: 10, K: 5, Alpha: 1}, true},
		{"zero dim", ReqHeader{M: 0, N: 10, K: 5, Alpha: 1}, false},
		{"negative dim", ReqHeader{M: 10, N: -1, K: 5, Alpha: 1}, false},
		{"dim over limit", ReqHeader{M: 101, N: 10, K: 5, Alpha: 1}, false},
		{"operand over limit", ReqHeader{M: 100, N: 100, K: 1, Alpha: 1}, false}, // C = 10000 words
		{"bad transA", ReqHeader{M: 2, N: 2, K: 2, TransA: "Q", Alpha: 1}, false},
		{"bad transB", ReqHeader{M: 2, N: 2, K: 2, TransB: "NT", Alpha: 1}, false},
		{"lowercase trans ok", ReqHeader{M: 2, N: 2, K: 2, TransA: "t", TransB: "n", Alpha: 1}, true},
		{"nan alpha", ReqHeader{M: 2, N: 2, K: 2, Alpha: math.NaN()}, false},
		{"inf beta", ReqHeader{M: 2, N: 2, K: 2, Alpha: 1, Beta: math.Inf(1)}, false},
	}
	for _, tc := range cases {
		err := tc.h.Validate(lim)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// Dimension overflow: a header whose dimensions multiply past int64 must be
// rejected by the dimension range check, never reach the frame allocator.
func TestHeaderOverflowRejected(t *testing.T) {
	h := ReqHeader{M: 1 << 23, N: 1 << 23, K: 1 << 23, Alpha: 1}
	if err := h.Validate(Limits{MaxDim: 1 << 30}); err == nil {
		t.Fatal("2^69-word operand accepted")
	}
}

func TestEncodeRequestValidation(t *testing.T) {
	h := ReqHeader{M: 2, N: 2, K: 2, Alpha: 1}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, &h, make([]float64, 3), make([]float64, 4), nil); err == nil {
		t.Fatal("short A frame accepted")
	}
	if err := EncodeRequest(&buf, &h, make([]float64, 4), make([]float64, 4), make([]float64, 4)); err == nil {
		t.Fatal("C frame accepted with beta == 0")
	}
	h.Beta = 1
	if err := EncodeRequest(&buf, &h, make([]float64, 4), make([]float64, 4), nil); err == nil {
		t.Fatal("missing C frame accepted with beta != 0")
	}
}

func TestParseShapes(t *testing.T) {
	got, err := ParseShapes("96x96x96:3, 64, 128x96x32:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Shape{{96, 96, 96, 3}, {64, 64, 64, 1}, {128, 32, 96, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "axbxc", "96x96", "96x96x96:0", "96x96x96:x"} {
		if _, err := ParseShapes(bad); err == nil {
			t.Fatalf("ParseShapes(%q) succeeded", bad)
		}
	}
}

// specialBits are float64 bit patterns a frame must carry unchanged: NaNs
// with payloads (quiet, signalling, negative), signed zeros and
// infinities, subnormals, and the extremes of the normal range.
var specialBits = []uint64{
	0x7ff8000000000000, // quiet NaN
	0x7ff8000000000123, // quiet NaN, payload
	0x7ff0000000000001, // signalling NaN, payload 1
	0x7ff4000000000abc, // signalling NaN, payload
	0xfff8dead0000beef, // negative quiet NaN, payload
	0xfff0000000000001, // negative signalling NaN
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x0000000000000001, // smallest subnormal
	0x000fffffffffffff, // largest subnormal
	0x8000000000000001, // negative subnormal
	0x0010000000000000, // smallest normal
	0x7fefffffffffffff, // largest finite
	0x3ff0000000000001, // 1 + ulp
}

// specialFrame fills a frame by cycling specialBits from offset off.
func specialFrame(words, off int) []float64 {
	v := make([]float64, words)
	for i := range v {
		v[i] = math.Float64frombits(specialBits[(i+off)%len(specialBits)])
	}
	return v
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// readers wraps an encoded body in readers that split and terminate reads
// differently, so a frame decoded in place must survive short reads and
// data returned together with io.EOF.
var readers = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data-err", iotest.DataErrReader},
}

// TestFrameBitsPreserved round-trips every special bit pattern through
// the request and response codecs, under each reader. The 70×70 case
// spans more than one big-endian conversion chunk.
func TestFrameBitsPreserved(t *testing.T) {
	for _, h := range []ReqHeader{
		{M: 5, N: 3, K: 7, Alpha: 1, Beta: -0.5},
		{M: 70, N: 70, K: 70, TransB: "T", Alpha: 2, Beta: 1},
	} {
		a := specialFrame(int(h.WordsA()), 0)
		b := specialFrame(int(h.WordsB()), 5)
		c := specialFrame(int(h.WordsC()), 11)
		var req, resp bytes.Buffer
		if err := EncodeRequest(&req, &h, a, b, c); err != nil {
			t.Fatal(err)
		}
		if err := EncodeResponse(&resp, &RespHeader{Status: "ok", Batched: 1}, c); err != nil {
			t.Fatal(err)
		}
		for _, rd := range readers {
			name := fmt.Sprintf("%dx%dx%d/%s", h.M, h.N, h.K, rd.name)
			got, err := DecodeRequest(rd.wrap(bytes.NewReader(req.Bytes())), Limits{})
			if err != nil {
				t.Fatalf("%s: decode request: %v", name, err)
			}
			if !sameBits(got.A, a) || !sameBits(got.B, b) || !sameBits(got.C, c) {
				t.Fatalf("%s: request frame bits changed", name)
			}
			_, out, err := DecodeResponse(rd.wrap(bytes.NewReader(resp.Bytes())), Limits{}, h.WordsC())
			if err != nil {
				t.Fatalf("%s: decode response: %v", name, err)
			}
			if !sameBits(out, c) {
				t.Fatalf("%s: response frame bits changed", name)
			}
		}
	}
}

// TestTruncatedFrameReportsOffset cuts a body inside each frame and checks
// the error names the frame and the word where the data ran out.
func TestTruncatedFrameReportsOffset(t *testing.T) {
	h := ReqHeader{M: 3, N: 4, K: 5, Alpha: 1, Beta: 1}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, &h, specialFrame(15, 0), specialFrame(20, 1), specialFrame(12, 2)); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	frames := 8 * int(h.WordsA()+h.WordsB()+h.WordsC())
	hdrEnd := len(body) - frames
	cases := []struct {
		keep int // body bytes past the header
		want string
	}{
		{0, "truncated A frame at word 0 of 15"},
		{8*6 + 3, "truncated A frame at word 6 of 15"},
		{8 * 15, "truncated B frame at word 0 of 20"},
		{8*(15+19) + 7, "truncated B frame at word 19 of 20"},
		{8*(15+20) + 8*11, "truncated C frame at word 11 of 12"},
	}
	for _, tc := range cases {
		for _, rd := range readers {
			_, err := DecodeRequest(rd.wrap(bytes.NewReader(body[:hdrEnd+tc.keep])), Limits{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s, %d frame bytes: error %v, want %q", rd.name, tc.keep, err, tc.want)
			}
		}
	}

	var resp bytes.Buffer
	if err := EncodeResponse(&resp, &RespHeader{Status: "ok"}, specialFrame(12, 0)); err != nil {
		t.Fatal(err)
	}
	for _, rd := range readers {
		_, _, err := DecodeResponse(rd.wrap(bytes.NewReader(resp.Bytes()[:resp.Len()-8*4-1])), Limits{}, 12)
		if err == nil || !strings.Contains(err.Error(), "truncated C frame at word 7 of 12") {
			t.Fatalf("%s: truncated response: error %v", rd.name, err)
		}
	}
}

// TestSwapWords exercises the big-endian conversion helper on any host:
// it must turn each word's little-endian bytes into its big-endian bytes,
// leave a trailing partial word alone, and undo itself.
func TestSwapWords(t *testing.T) {
	words := []uint64{0x0102030405060708, 0x7ff4000000000abc, 0x8000000000000001}
	b := make([]byte, 8*len(words)+3)
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	copy(b[8*len(words):], "xyz")
	orig := bytes.Clone(b)
	swapWords(b)
	for i, w := range words {
		if got := binary.BigEndian.Uint64(b[8*i:]); got != w {
			t.Fatalf("word %d: swapped bytes read big-endian as %#x, want %#x", i, got, w)
		}
	}
	if string(b[8*len(words):]) != "xyz" {
		t.Fatalf("partial word changed: %q", b[8*len(words):])
	}
	swapWords(b)
	if !bytes.Equal(b, orig) {
		t.Fatal("swapping twice is not the identity")
	}
}

// BenchmarkWireRoundTrip measures the frame codec alone, with no network:
// one 192³ β≠0 request encoded and decoded, then its result encoded and
// decoded. MB/s counts the four frames' bytes.
func BenchmarkWireRoundTrip(b *testing.B) {
	const n = 192
	rng := rand.New(rand.NewSource(33))
	h := ReqHeader{M: n, N: n, K: n, TransB: "T", Alpha: 1, Beta: 0.5}
	a, bm, c := randFloats(rng, n*n), randFloats(rng, n*n), randFloats(rng, n*n)
	var req, resp bytes.Buffer
	b.SetBytes(8 * (h.WordsA() + h.WordsB() + 2*h.WordsC()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Reset()
		if err := EncodeRequest(&req, &h, a, bm, c); err != nil {
			b.Fatal(err)
		}
		got, err := DecodeRequest(&req, Limits{})
		if err != nil {
			b.Fatal(err)
		}
		resp.Reset()
		if err := EncodeResponse(&resp, &RespHeader{Status: "ok", Batched: 1}, got.C); err != nil {
			b.Fatal(err)
		}
		if _, _, err := DecodeResponse(&resp, Limits{}, h.WordsC()); err != nil {
			b.Fatal(err)
		}
	}
}
