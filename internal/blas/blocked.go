package blas

// BlockedKernel is a cache-blocked, packing DGEMM in the style of tuned
// library kernels (ESSL, GotoBLAS): the operands are copied into contiguous
// zero-padded panels sized to the cache hierarchy, and a register-tiled
// micro-kernel runs over the packed data. It models the RS/6000's vendor
// DGEMM: a high absolute flop rate that makes the O(n²) Strassen overheads
// relatively expensive and pushes the empirical cutoff up (Table 2).
//
// Packing also makes the four transpose cases uniform: the packers read
// through op(A)/op(B), and a single micro-kernel serves all cases.
type BlockedKernel struct {
	// MC×KC is the packed A panel (targets L2); KC×NC is the packed B panel
	// (targets L3). Zero values select the defaults.
	MC, KC, NC int

	apack []float64
	bpack []float64
}

// Cloner is implemented by kernels that keep internal state (packing
// buffers) and therefore cannot be shared across goroutines: Clone returns
// an independent kernel with the same tuning.
type Cloner interface {
	// Clone returns a kernel safe to use concurrently with the receiver.
	Clone() Kernel
}

// Clone implements Cloner: a fresh BlockedKernel with the same block sizes
// but its own packing buffers.
func (k *BlockedKernel) Clone() Kernel {
	return &BlockedKernel{MC: k.MC, KC: k.KC, NC: k.NC}
}

// CloneKernel returns a goroutine-independent copy of k: stateful kernels
// are cloned via Cloner, stateless ones are returned as-is. Nil selects
// DefaultKernel.
func CloneKernel(k Kernel) Kernel {
	if k == nil {
		k = DefaultKernel
	}
	if c, ok := k.(Cloner); ok {
		return c.Clone()
	}
	return k
}

// Micro-tile dimensions of the register kernel.
const (
	mr = 4
	nr = 4
)

const (
	defaultMC = 128
	defaultKC = 256
	defaultNC = 1024
)

// Name implements Kernel.
func (k *BlockedKernel) Name() string { return "blocked" }

func (k *BlockedKernel) params() (mc, kc, nc int) {
	mc, kc, nc = k.MC, k.KC, k.NC
	if mc <= 0 {
		mc = defaultMC
	}
	if kc <= 0 {
		kc = defaultKC
	}
	if nc <= 0 {
		nc = defaultNC
	}
	// Round the panel heights up to whole micro-tiles.
	mc = ((mc + mr - 1) / mr) * mr
	nc = ((nc + nr - 1) / nr) * nr
	return mc, kc, nc
}

// MulAdd implements Kernel.
func (k *BlockedKernel) MulAdd(transA, transB Transpose, m, n, kk int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	mc, kc, nc := k.params()
	if cap(k.apack) < mc*kc {
		k.apack = make([]float64, mc*kc)
	}
	if cap(k.bpack) < kc*nc {
		k.bpack = make([]float64, kc*nc)
	}
	apack := k.apack[:mc*kc]
	bpack := k.bpack[:kc*nc]
	ta, tb := transA.IsTrans(), transB.IsTrans()

	for jc := 0; jc < n; jc += nc {
		nb := minInt(nc, n-jc)
		for pc := 0; pc < kk; pc += kc {
			kb := minInt(kc, kk-pc)
			packB(bpack, b, ldb, tb, pc, jc, kb, nb)
			for ic := 0; ic < m; ic += mc {
				mb := minInt(mc, m-ic)
				packA(apack, a, lda, ta, ic, pc, mb, kb)
				macroKernel(apack, bpack, c, ldc, ic, jc, mb, nb, kb, alpha)
			}
		}
	}
}

// packA copies the mb×kb block of op(A) with top-left (ic, pc) into dst as
// MR-row panels, zero-padding the ragged final panel. Element (i, l) of the
// block lands at dst[(i/mr)*(mr*kb) + l*mr + i%mr].
func packA(dst []float64, a []float64, lda int, ta bool, ic, pc, mb, kb int) {
	for ip := 0; ip < mb; ip += mr {
		rows := minInt(mr, mb-ip)
		base := (ip / mr) * (mr * kb)
		if !ta {
			for l := 0; l < kb; l++ {
				src := a[(pc+l)*lda+ic+ip:]
				d := dst[base+l*mr : base+l*mr+mr]
				for r := 0; r < rows; r++ {
					d[r] = src[r]
				}
				for r := rows; r < mr; r++ {
					d[r] = 0
				}
			}
		} else {
			// op(A)(i, l) = A(l, i) stored at a[(pc+l) + (ic+i)*lda].
			for l := 0; l < kb; l++ {
				d := dst[base+l*mr : base+l*mr+mr]
				for r := 0; r < rows; r++ {
					d[r] = a[pc+l+(ic+ip+r)*lda]
				}
				for r := rows; r < mr; r++ {
					d[r] = 0
				}
			}
		}
	}
}

// packB copies the kb×nb block of op(B) with top-left (pc, jc) into dst as
// NR-column panels, zero-padding the ragged final panel. Element (l, j) of
// the block lands at dst[(j/nr)*(nr*kb) + l*nr + j%nr].
func packB(dst []float64, b []float64, ldb int, tb bool, pc, jc, kb, nb int) {
	for jp := 0; jp < nb; jp += nr {
		cols := minInt(nr, nb-jp)
		base := (jp / nr) * (nr * kb)
		if !tb {
			for l := 0; l < kb; l++ {
				d := dst[base+l*nr : base+l*nr+nr]
				for s := 0; s < cols; s++ {
					d[s] = b[pc+l+(jc+jp+s)*ldb]
				}
				for s := cols; s < nr; s++ {
					d[s] = 0
				}
			}
		} else {
			// op(B)(l, j) = B(j, l) stored at b[(jc+j) + (pc+l)*ldb].
			for l := 0; l < kb; l++ {
				src := b[(pc+l)*ldb+jc+jp:]
				d := dst[base+l*nr : base+l*nr+nr]
				for s := 0; s < cols; s++ {
					d[s] = src[s]
				}
				for s := cols; s < nr; s++ {
					d[s] = 0
				}
			}
		}
	}
}

// macroKernel sweeps the packed panels with the MR×NR micro-kernel and
// accumulates alpha times the product into C.
func macroKernel(apack, bpack []float64, c []float64, ldc int, ic, jc, mb, nb, kb int, alpha float64) {
	for jp := 0; jp < nb; jp += nr {
		cols := minInt(nr, nb-jp)
		bbase := (jp / nr) * (nr * kb)
		for ip := 0; ip < mb; ip += mr {
			rows := minInt(mr, mb-ip)
			abase := (ip / mr) * (mr * kb)
			microKernel(apack[abase:abase+mr*kb], bpack[bbase:bbase+nr*kb],
				c, ldc, ic+ip, jc+jp, rows, cols, kb, alpha)
		}
	}
}

// microKernel computes the MR×NR register tile: acc += ap(:,l) ⊗ bp(l,:) for
// l in [0, kb), then scatters alpha*acc into C (only the valid rows/cols of a
// ragged edge tile).
func microKernel(ap, bp []float64, c []float64, ldc int, ci, cj, rows, cols, kb int, alpha float64) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64

	for l := 0; l < kb; l++ {
		a0, a1, a2, a3 := ap[l*mr], ap[l*mr+1], ap[l*mr+2], ap[l*mr+3]
		b0, b1, b2, b3 := bp[l*nr], bp[l*nr+1], bp[l*nr+2], bp[l*nr+3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}

	var acc [mr][nr]float64
	acc[0] = [nr]float64{c00, c01, c02, c03}
	acc[1] = [nr]float64{c10, c11, c12, c13}
	acc[2] = [nr]float64{c20, c21, c22, c23}
	acc[3] = [nr]float64{c30, c31, c32, c33}

	for s := 0; s < cols; s++ {
		col := c[(cj+s)*ldc+ci:]
		for r := 0; r < rows; r++ {
			col[r] += alpha * acc[r][s]
		}
	}
}
