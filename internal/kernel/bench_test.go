package kernel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blas"
)

// benchMulAdd reports MB/s == MFLOP/s by setting bytes to the 2·m·n·k flop
// count, so `go test -bench` output reads directly as a flop rate.
func benchMulAdd(b *testing.B, k blas.Kernel, n int) {
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, n*n)
	bb := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64()
		bb[i] = rng.Float64()
	}
	b.SetBytes(int64(2 * n * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.MulAdd(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, bb, n, c, n)
	}
}

func BenchmarkPacked256(b *testing.B) { benchMulAdd(b, &Packed{}, 256) }
func BenchmarkPacked512(b *testing.B) { benchMulAdd(b, &Packed{}, 512) }
func BenchmarkScalar256(b *testing.B) { benchMulAdd(b, &Packed{Mode: ModeScalar}, 256) }
func BenchmarkScalar512(b *testing.B) { benchMulAdd(b, &Packed{Mode: ModeScalar}, 512) }
func BenchmarkSIMD512(b *testing.B) {
	if !HasSIMD() {
		b.Skipf("no SIMD micro-kernel (ISA %s)", SIMDISA())
	}
	benchMulAdd(b, &Packed{Mode: ModeSIMD}, 512)
}
func BenchmarkBlocked256(b *testing.B) { benchMulAdd(b, &blas.BlockedKernel{}, 256) }
func BenchmarkBlocked512(b *testing.B) { benchMulAdd(b, &blas.BlockedKernel{}, 512) }
func BenchmarkPackedCompat512(b *testing.B) {
	benchMulAdd(b, &Packed{Compat: true}, 512)
}

// BenchmarkMulAddShapes times MulAdd on the default kernel at serve_mix's
// request shapes (m×k×n: 64³, 96³, 128×96×64 and 192³ with Bᵀ) and at
// 1024³, the DGEMM arm of the matrix workloads. Each call is one product
// of the packed nest, one unit term per operand. SetBytes is the
// call's 2·m·n·k FLOPs, so MB/s reads as MFLOP/s.
func BenchmarkMulAddShapes(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
		transB  bool
	}{
		{"64", 64, 64, 64, false},
		{"96", 96, 96, 96, false},
		{"128x96x64", 128, 96, 64, false},
		{"192Bt", 192, 192, 192, true},
		{"1024", 1024, 1024, 1024, false},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(12))
			x, y, c := fill(rng, s.m, s.k, s.m), fill(rng, s.k, s.n, s.k), make([]float64, s.m*s.n)
			tb, ldb := blas.NoTrans, s.k
			if s.transB {
				tb, ldb = blas.Trans, s.n
				y = fill(rng, s.n, s.k, s.n)
			}
			k := &Packed{}
			b.SetBytes(int64(2 * s.m * s.n * s.k))
			b.ResetTimer()
			for range b.N {
				k.MulAdd(blas.NoTrans, tb, s.m, s.n, s.k, 1, x, s.m, y, ldb, c, s.m)
			}
		})
	}
}

// BenchmarkFusedPack times the fused packers on one 256×256 block of 1- to
// 4-term operands at leading dimensions 256–1024, on the auto-dispatched
// tile's panel geometry. The clipped rows give every term past the first
// an extent one row and one column short of the block, as a virtually
// padded Strassen level hands the packers (A22, B22; the blocks of the
// last grid row and column two fused levels down). Where the ISA forms
// operands in assembly, each case also runs as /go with the assembly
// switched off, timing the Go loops on the same block. SetBytes follows
// the kernel.fused_pack phase: (terms+1)·8 bytes per packed word — every
// term read once, the packed word written once.
func BenchmarkFusedPack(b *testing.B) {
	const blk = 256
	asm := (&Packed{}).impl()
	goLoops := *asm
	goLoops.packAN, goLoops.packBN = nil, nil
	forms := []struct {
		name string
		mi   *microImpl
	}{{"", asm}}
	if asm.packAN != nil {
		forms = append(forms, struct {
			name string
			mi   *microImpl
		}{"/go", &goLoops})
	}
	for _, side := range []string{"A", "B"} {
		for _, terms := range []string{"1", "2", "2/clipped", "3", "4", "4/clipped"} {
			for _, ld := range []int{256, 512, 1024} {
				for _, form := range forms {
					b.Run(fmt.Sprintf("%s/terms=%s/ld=%d%s", side, terms, ld, form.name), func(b *testing.B) {
						mi := form.mi
						rng := rand.New(rand.NewSource(12))
						op := Operand{Ld: ld}
						n := int(terms[0] - '0')
						for t := 0; t < n; t++ {
							op.Terms = append(op.Terms, Term{Data: fill(rng, ld, blk, ld), Coeff: float64(1 - 2*(t%2)), Rows: blk, Cols: blk})
							if t > 0 && strings.HasSuffix(terms, "/clipped") {
								op.Terms[t].Rows, op.Terms[t].Cols = blk-1, blk-1
							}
						}
						dst := make([]float64, roundUpMul(blk, mi.mr)*roundUpMul(blk, mi.nr))
						b.SetBytes(int64(n+1) * 8 * blk * blk)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if side == "A" {
								packAFused(mi, dst, op, 0, 0, blk, blk)
							} else {
								packBFused(mi, dst, op, 0, 0, blk, blk)
							}
						}
					})
				}
			}
		}
	}
}
