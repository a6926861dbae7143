package strassen

// A Strassen level as data. Every level the recursion can apply — the
// paper's STRASSEN1 and STRASSEN2 schedules (Section 3.2, Figure 1), the
// 1969 construction, any verified ⟨M,K,N⟩ coefficient table, its task-DAG
// form and its fused form — is a program: a name (the trace action), the
// level's block grid, declared temporaries, and a straight-line list of
// two op kinds over block and temporary slots, in the style of the
// Strassen–Winograd schedules of Boyer, Dumas, Pernet and Zhou (arXiv
// 0707.2347):
//
//	lin  X ← Σ γᵢ·Yᵢ          γ ∈ {±1, a constant, the call's β}
//	mul  Z ← ±α·X·Y + β′·Z    β′ ∈ {0, 1, β}; X·Y recurses
//
// One interpreter (interp.go) runs every program; the workspace plan, the
// task DAG and the fused records are derived from the same data. Programs
// are built once (the literals at init, table compilations cached per
// table) and are immutable afterwards.

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/algo"
)

// shape is the block shape a slot has on a level with grid blocks of
// mq×kq (A), kq×nq (B) and mq×nq (C).
type shape uint8

const (
	shapeA shape = iota
	shapeB
	shapeC
)

// wholeC is the block index naming all of C rather than one block.
const wholeC = -1

// slot is one op operand: a block of A, B or C on the level's grid (index
// row-major), or a declared temporary viewed with the given block shape.
type slot struct {
	shape shape
	temp  bool
	idx   int
}

// term is one γ·Y summand of a lin op; beta marks γ = the call's β.
type term struct {
	g    float64
	beta bool
	src  slot
}

func plus(s slot) term             { return term{g: 1, src: s} }
func minus(s slot) term            { return term{g: -1, src: s} }
func times(g float64, s slot) term { return term{g: g, src: s} }
func betaTimes(s slot) term        { return term{beta: true, src: s} }
func (t term) coeff(beta float64) float64 {
	if t.beta {
		return beta
	}
	return t.g
}

// accum is a mul op's β′: what the product accumulates onto.
type accum uint8

const (
	acc0    accum = iota // Z ← ±α·X·Y
	acc1                 // Z ← ±α·X·Y + Z
	accBeta              // Z ← ±α·X·Y + β·Z
)

// pass names the matrix kernel one lin op lowers to.
type pass uint8

const (
	passCopy         pass = iota // dst ← x
	passAdd                      // dst ← x + y
	passSub                      // dst ← x − y
	passAddAssign                // dst ← dst + x
	passSubAssign                // dst ← dst − x
	passRevSubAssign             // dst ← x − dst
	passAddSubAssign             // dst ← x − y − dst
	passAxpby                    // dst ← x + g·dst
	passAccum                    // dst ← dst + g·x
	passScaleCopy                // dst ← g·x
	passScale                    // dst ← g·dst
)

// op is one program step. A lin op writes dst from terms; a mul op writes
// dst from the product of x and y.
type op struct {
	mul   bool
	dst   slot
	terms []term
	x, y  slot
	neg   bool
	acc   accum

	// Lowering of a lin op, fixed when the program is built: the matrix
	// kernel, the term indices of its x and y operands, and the term whose
	// coefficient is the kernel's scalar g.
	pass       pass
	px, py, pg int
}

func lin(dst slot, terms ...term) op { return op{dst: dst, terms: terms} }

func mulOp(z, x, y slot, acc accum) op { return op{mul: true, dst: z, x: x, y: y, acc: acc} }

// reads lists the slots an op reads; the destination counts when a lin
// term or a mul's β′ refers to it.
func (o *op) reads() []slot {
	if o.mul {
		if o.acc == acc0 {
			return []slot{o.x, o.y}
		}
		return []slot{o.x, o.y, o.dst}
	}
	out := make([]slot, len(o.terms))
	for i, t := range o.terms {
		out[i] = t.src
	}
	return out
}

// lower picks the matrix kernel for a lin op from the pattern of its
// terms, so each op is one elementwise pass with the paper's operation
// order (two-term sums commute exactly; x − y − dst evaluates left to
// right); any other pattern is a malformed program.
func (o *op) lower() {
	ts := o.terms
	in := -1
	for i, t := range ts {
		if t.src == o.dst {
			in = i
		}
	}
	unit := func(i int, g float64) bool { return !ts[i].beta && ts[i].g == g }
	set := func(p pass, px, py, pg int) { o.pass, o.px, o.py, o.pg = p, px, py, pg }
	switch {
	case len(ts) == 1 && in == 0:
		set(passScale, -1, -1, 0)
	case len(ts) == 1 && unit(0, 1):
		set(passCopy, 0, -1, 0)
	case len(ts) == 1:
		set(passScaleCopy, 0, -1, 0)
	case len(ts) == 2 && in == -1 && unit(0, 1) && unit(1, 1):
		set(passAdd, 0, 1, 0)
	case len(ts) == 2 && in == -1 && unit(0, 1) && unit(1, -1):
		set(passSub, 0, 1, 0)
	case len(ts) == 2 && in == -1 && unit(0, -1) && unit(1, 1):
		set(passSub, 1, 0, 0)
	case len(ts) == 2 && in == 0 && unit(0, 1) && unit(1, 1):
		set(passAddAssign, 1, -1, 0)
	case len(ts) == 2 && in == 0 && unit(0, 1) && unit(1, -1):
		set(passSubAssign, 1, -1, 0)
	case len(ts) == 2 && in == 0 && unit(0, 1) && !ts[1].beta:
		set(passAccum, 1, -1, 1)
	case len(ts) == 2 && in == 1 && unit(0, 1) && unit(1, -1):
		set(passRevSubAssign, 0, -1, 0)
	case len(ts) == 2 && in == 1 && unit(0, 1):
		set(passAxpby, 0, -1, 1)
	case len(ts) == 3 && in == 2 && unit(0, 1) && unit(1, -1) && unit(2, -1):
		set(passAddSubAssign, 0, 1, 0)
	default:
		panic(fmt.Sprintf("strassen: lin op %+v has no matrix kernel", *o))
	}
}

// task is one node of a DAG program: the consecutive ops ops[first:last]
// that write one slot, and the earlier tasks it must follow.
type task struct {
	first, last int
	deps        []int
}

// program is one Strassen level. Exactly one of ops, fold and recs
// describes the work: ops run in order (or as tasks, when tasks is
// non-nil); fold runs its program into an m×n temporary W, then
// C ← W + β·C; recs stream through the kernel's fused hooks.
type program struct {
	name    string
	m, k, n int // block grid: A is m×k blocks, B k×n, C m×n
	// temps holds each temporary buffer's block shapes; the buffer is
	// sized for the largest.
	temps [][]shape
	ops   []op
	tasks []task
	fold  *program
	recs  []fusedRecord
	// cReads lists every read of a C block the program wrote earlier,
	// with the slot it is read into (a product operand reads into a
	// temporary: the whole block). Virtual padding needs each such
	// destination to store no more than the block it reads
	// (policy.padsVirtually).
	cReads []cRead
}

// cRead is one read of a written C block, src, into dst.
type cRead struct{ src, dst slot }

// build lowers every lin op and derives cReads; a malformed program
// panics at init.
func (p *program) build() *program {
	written := map[slot]bool{}
	for i := range p.ops {
		o := &p.ops[i]
		if !o.mul {
			o.lower()
		}
		for _, r := range o.reads() {
			into := o.dst
			if o.mul && r != o.dst {
				into = tmp(0, r.shape)
			}
			if !r.temp && r.shape == shapeC && (written[r] || written[slot{shape: shapeC, idx: wholeC}]) {
				p.cReads = append(p.cReads, cRead{src: r, dst: into})
			}
		}
		if !o.dst.temp && o.dst.shape == shapeC {
			written[o.dst] = true
		}
	}
	return p
}

// products returns the number of mul ops (the level's fan-out).
func (p *program) products() int {
	r := 0
	for i := range p.ops {
		if p.ops[i].mul {
			r++
		}
	}
	return r
}

// words is the level's own workspace on an (m, k, n) problem: every
// declared temporary at its largest block shape (rounded up to the grid
// when the level pads virtually), plus the fold buffer.
func (p *program) words(m, k, n int) int64 {
	if p.fold != nil {
		return int64(m)*int64(n) + p.fold.words(m, k, n)
	}
	mq, kq, nq := int64(ceilDiv(m, p.m)), int64(ceilDiv(k, p.k)), int64(ceilDiv(n, p.n))
	var w int64
	for _, shapes := range p.temps {
		var most int64
		for _, s := range shapes {
			if sz := [...]int64{mq * kq, kq * nq, mq * nq}[s]; sz > most {
				most = sz
			}
		}
		w += most
	}
	return w
}

// grid returns the n blocks of a shape, row-major.
func grid(s shape, n int) []slot {
	out := make([]slot, n)
	for i := range out {
		out[i] = slot{shape: s, idx: i}
	}
	return out
}

func tmp(i int, s shape) slot { return slot{shape: s, temp: true, idx: i} }

// strassen1 is the paper's β = 0 schedule for Winograd's variant
// (7 multiplies, 15 adds). The four C blocks serve as product buffers, so
// only two temporaries are needed: R1, one (m/2)·max(k/2, n/2) buffer
// holding S-shaped sums early and a product late, and R2 of (k/2)·(n/2).
// Summed over the recursion the extra space is (m·max(k,n) + kn)/3 — the
// paper's 2m²/3 for squares (Table 1). In the paper's naming:
//
//	S1 = A21 + A22    T1 = B12 − B11    P1 = A11·B11   U2 = P1 + P6
//	S2 = S1 − A11     T2 = B22 − T1     P2 = A12·B21   U3 = U2 + P7
//	S3 = A11 − A21    T3 = B22 − B12    P3 = S4·B22    U4 = U2 + P5
//	S4 = A12 − S2     T4 = T2 − B21     P4 = A22·T4
//	                                    P5 = S1·T1
//	                                    P6 = S2·T2
//	                                    P7 = S3·T3
//
//	C11 = P1 + P2,  C12 = U4 + P3,  C21 = U3 − P4,  C22 = U3 + P5.
//
// The products carry α, so every combination works on scaled values.
var strassen1 = func() *program {
	A, B, C := grid(shapeA, 4), grid(shapeB, 4), grid(shapeC, 4)
	r1s, r1p, r2 := tmp(0, shapeA), tmp(0, shapeC), tmp(1, shapeB)
	return (&program{name: "strassen1", m: 2, k: 2, n: 2,
		temps: [][]shape{{shapeA, shapeC}, {shapeB}},
		ops: []op{
			lin(r1s, plus(A[0]), minus(A[2])),               // R1 = S3
			lin(r2, plus(B[3]), minus(B[1])),                // R2 = T3
			mulOp(C[0], r1s, r2, acc0),                      // C11 = αP7
			lin(r1s, plus(A[2]), plus(A[3])),                // R1 = S1
			lin(r2, plus(B[1]), minus(B[0])),                // R2 = T1
			mulOp(C[2], r1s, r2, acc0),                      // C21 = αP5
			lin(C[3], plus(C[0]), plus(C[2])),               // C22 = α(P7+P5)
			lin(r1s, plus(r1s), minus(A[0])),                // R1 = S2 = S1−A11
			lin(r2, plus(B[3]), minus(r2)),                  // R2 = T2 = B22−T1
			mulOp(C[1], r1s, r2, acc0),                      // C12 = αP6
			lin(C[3], plus(C[3]), plus(C[1])),               // C22 = α(P5+P6+P7)
			lin(r1s, plus(A[1]), minus(r1s)),                // R1 = S4 = A12−S2
			mulOp(C[0], r1s, B[3], acc0),                    // C11 = αP3 (P7 dead)
			lin(C[1], plus(C[1]), plus(C[0])),               // C12 = α(P6+P3)
			lin(C[1], plus(C[1]), plus(C[2])),               // C12 = α(P6+P3+P5)
			lin(r2, plus(r2), minus(B[2])),                  // R2 = T4 = T2−B21
			mulOp(C[0], A[3], r2, acc0),                     // C11 = αP4 (P3 dead)
			mulOp(r1p, A[0], B[0], acc0),                    // R1 = αP1
			lin(C[1], plus(C[1]), plus(r1p)),                // C12 final = α(P1+P3+P5+P6)
			lin(C[3], plus(C[3]), plus(r1p)),                // C22 final = α(P1+P5+P6+P7)
			lin(C[2], plus(C[3]), minus(C[0]), minus(C[2])), // C21 final = α(P1+P6+P7−P4)
			lin(C[0], plus(r1p)),                            // C11 = αP1
			mulOp(r1p, A[1], B[2], acc0),                    // R1 = αP2
			lin(C[0], plus(C[0]), plus(r1p)),                // C11 final = α(P1+P2)
		}}).build()
}()

// strassen1General extends STRASSEN1 to β ≠ 0 in the spirit of the paper's
// six-temporary general case: STRASSEN1 runs into an m×n fold buffer and
// the result folds into C with one axpby. Peak extra space is
// mn + (m·max(k,n) + kn)/3 — within the paper's STRASSEN1 β ≠ 0 bound of
// 2m² (Table 1). STRASSEN2 strictly improves on it, which is why DGEFMM
// uses STRASSEN2; this form exists for the paper's comparison.
var strassen1General = &program{name: "strassen1", m: 2, k: 2, n: 2, fold: strassen1}

// strassen2 is the general-β schedule of the paper's Figure 1 with the
// minimum three temporaries: R1 holds only A blocks (mk/4), R2 only B
// blocks (kn/4), R3 only C blocks (mn/4). The recursive operation is the
// full multiply-accumulate, so partial sums live in C even when β ≠ 0.
// Summed over the recursion the extra space is (mk + kn + mn)/3 (m² for
// squares, Table 1).
var strassen2 = func() *program {
	A, B, C := grid(shapeA, 4), grid(shapeB, 4), grid(shapeC, 4)
	r1, r2, r3 := tmp(0, shapeA), tmp(1, shapeB), tmp(2, shapeC)
	neg := mulOp(C[2], A[3], r2, accBeta) // C21 = βC21 − αP4
	neg.neg = true
	return (&program{name: "strassen2", m: 2, k: 2, n: 2,
		temps: [][]shape{{shapeA}, {shapeB}, {shapeC}},
		ops: []op{
			lin(r1, plus(A[2]), plus(A[3])),      // R1 = S1
			lin(r2, plus(B[1]), minus(B[0])),     // R2 = T1
			mulOp(r3, r1, r2, acc0),              // R3 = αP5
			lin(C[1], plus(r3), betaTimes(C[1])), // C12 = βC12 + αP5
			lin(C[3], plus(r3), betaTimes(C[3])), // C22 = βC22 + αP5
			lin(r1, plus(r1), minus(A[0])),       // R1 = S2
			lin(r2, plus(B[3]), minus(r2)),       // R2 = T2
			mulOp(r3, A[0], B[0], acc0),          // R3 = αP1
			lin(C[0], plus(r3), betaTimes(C[0])), // C11 = βC11 + αP1
			mulOp(r3, r1, r2, acc1),              // R3 = α(P1+P6) = αU2
			mulOp(C[0], A[1], B[2], acc1),        // C11 final = βC11 + α(P1+P2)
			lin(r1, plus(A[1]), minus(r1)),       // R1 = S4
			lin(r2, plus(r2), minus(B[2])),       // R2 = T4
			mulOp(C[1], r1, B[3], acc1),          // C12 += αP3
			lin(C[1], plus(C[1]), plus(r3)),      // C12 final = βC12 + α(P5+P3+U2)
			neg,                                  // C21 = βC21 − αP4
			lin(r1, plus(A[0]), minus(A[2])),     // R1 = S3
			lin(r2, plus(B[3]), minus(B[1])),     // R2 = T3
			mulOp(r3, r1, r2, acc1),              // R3 = αU3 = α(U2+P7)
			lin(C[2], plus(C[2]), plus(r3)),      // C21 final = βC21 + α(U3−P4)
			lin(C[3], plus(C[3]), plus(r3)),      // C22 final = βC22 + α(P5+U3)
		}}).build()
}()

// operand appends the passes forming Σ terms (blocks of shape s) into dst
// and returns the slot holding the operand: the block itself for a single
// +1 term, dst otherwise. Two leading ±1 terms start with one Add/Sub pass
// (a +1/−1 pair computes plus − minus regardless of column order); every
// further term is one accumulate pass. internal/opcount's operandPasses
// counts the same passes; change them together.
func (p *program) operand(dst slot, s shape, terms []algo.Term) slot {
	blk := func(i int) slot { return slot{shape: s, idx: terms[i].Block} }
	g := func(i int) float64 { return terms[i].Coeff }
	if !needsTemp(terms) {
		return blk(0)
	}
	i := 1
	switch {
	case len(terms) >= 2 && g(0) == 1 && (g(1) == 1 || g(1) == -1):
		p.ops = append(p.ops, lin(dst, plus(blk(0)), times(g(1), blk(1))))
		i = 2
	case len(terms) >= 2 && g(0) == -1 && g(1) == 1:
		p.ops = append(p.ops, lin(dst, plus(blk(1)), minus(blk(0))))
		i = 2
	default:
		p.ops = append(p.ops, lin(dst, times(g(0), blk(0))))
	}
	for ; i < len(terms); i++ {
		p.ops = append(p.ops, lin(dst, plus(dst), times(g(i), blk(i))))
	}
	return dst
}

// needsTemp reports whether an operand column needs a buffer (anything
// but a single +1 term).
func needsTemp(terms []algo.Term) bool { return len(terms) != 1 || terms[0].Coeff != 1 }

// compileTable compiles a coefficient table into the sequential program:
// three temporaries S, T, P; C scaled by β once up front; then, for each
// product r in order, form the operands, recurse with β′ = 0 into P, and
// accumulate P into the W column's C blocks.
func compileTable(t *algo.Table, name string) *program {
	p := &program{name: name, m: t.M, k: t.K, n: t.N,
		temps: [][]shape{{shapeA}, {shapeB}, {shapeC}}}
	s, tt, pp := tmp(0, shapeA), tmp(1, shapeB), tmp(2, shapeC)
	all := slot{shape: shapeC, idx: wholeC}
	p.ops = append(p.ops, lin(all, betaTimes(all)))
	for r := 0; r < t.R; r++ {
		x := p.operand(s, shapeA, t.ATerms(r))
		y := p.operand(tt, shapeB, t.BTerms(r))
		p.ops = append(p.ops, mulOp(pp, x, y, acc0))
		for _, tm := range t.CTerms(r) {
			cb := slot{shape: shapeC, idx: tm.Block}
			p.ops = append(p.ops, lin(cb, plus(cb), times(tm.Coeff, pp)))
		}
	}
	return p.build()
}

// compileDAG compiles a coefficient table into the task-DAG program of a
// level that runs lanes products at once. Product r forms its operands and
// its product in lane r mod lanes, then accumulates P_r into every C block
// its W column names, scaling each C block by β just before its first
// product — so every C block sees the sequential program's op order (β,
// then ascending r) and both produce the same bits. Each operand and
// product starts as its own temporary; allocTemps then gives each lane
// its own A, B and P buffers, reused product after product, and
// deriveTasks orders the reuse (a lane's next product waits until its
// previous one is written back), which caps the products in flight at
// lanes and the level's workspace at lanes sets of buffers.
func compileDAG(t *algo.Table, lanes int) *program {
	p := &program{name: "parallel", m: t.M, k: t.K, n: t.N}
	var laneOf []int
	newTemp := func(s shape, lane int) slot {
		p.temps = append(p.temps, []shape{s})
		laneOf = append(laneOf, lane)
		return tmp(len(p.temps)-1, s)
	}
	scaled := make([]bool, t.M*t.N)
	for r := 0; r < t.R; r++ {
		lane := r % lanes
		at, bt := t.ATerms(r), t.BTerms(r)
		x, y := slot{shape: shapeA, idx: at[0].Block}, slot{shape: shapeB, idx: bt[0].Block}
		if needsTemp(at) {
			x = p.operand(newTemp(shapeA, lane), shapeA, at)
		}
		if needsTemp(bt) {
			y = p.operand(newTemp(shapeB, lane), shapeB, bt)
		}
		prod := newTemp(shapeC, lane)
		p.ops = append(p.ops, mulOp(prod, x, y, acc0))
		for l := range scaled {
			if g := t.W[l][r]; g != 0 {
				cb := slot{shape: shapeC, idx: l}
				if !scaled[l] {
					p.ops = append(p.ops, lin(cb, betaTimes(cb)))
					scaled[l] = true
				}
				p.ops = append(p.ops, lin(cb, plus(cb), times(g, prod)))
			}
		}
	}
	p.allocTemps(laneOf)
	p.tasks = deriveTasks(p.ops)
	return p.build()
}

// allocTemps register-allocates a program's temporaries: each declared
// temporary lives from the op that first writes it to the op that last
// touches it, and takes a free buffer of its shape from its class (the
// lane that computes it), or a new one when none is free. Afterwards the
// program declares only those buffers.
func (p *program) allocTemps(class []int) {
	last := make([]int, len(p.temps))
	for i := range p.ops {
		o := &p.ops[i]
		for _, s := range append(o.reads(), o.dst) {
			if s.temp {
				last[s.idx] = i
			}
		}
	}
	type pool struct {
		class int
		shape shape
	}
	free := map[pool][]int{}
	phys := make([]int, len(p.temps))
	for i := range phys {
		phys[i] = -1
	}
	var temps [][]shape
	at := func(s slot) slot {
		if s.temp {
			s.idx = phys[s.idx]
		}
		return s
	}
	for i := range p.ops {
		o := &p.ops[i]
		touched := append(o.reads(), o.dst)
		if v := o.dst.idx; o.dst.temp && phys[v] < 0 {
			key := pool{class[v], o.dst.shape}
			if list := free[key]; len(list) > 0 {
				phys[v], free[key] = list[len(list)-1], list[:len(list)-1]
			} else {
				phys[v] = len(temps)
				temps = append(temps, p.temps[v])
			}
		}
		o.dst, o.x, o.y = at(o.dst), at(o.x), at(o.y)
		for j := range o.terms {
			o.terms[j].src = at(o.terms[j].src)
		}
		for _, s := range touched {
			if s.temp && last[s.idx] == i && phys[s.idx] >= 0 {
				key := pool{class[s.idx], s.shape}
				free[key] = append(free[key], phys[s.idx])
				phys[s.idx] = -1
			}
		}
	}
	p.temps = temps
}

// aliases reports whether two slots share storage: the same temporary
// buffer (whatever its view shape), or overlapping blocks of one matrix.
func aliases(a, b slot) bool {
	if a.temp || b.temp {
		return a.temp && b.temp && a.idx == b.idx
	}
	return a.shape == b.shape && (a.idx == b.idx || a.idx == wholeC || b.idx == wholeC)
}

// deriveTasks groups consecutive ops that write one slot into one task
// and derives each task's dependencies from the ops' read and write sets:
// a task follows every earlier task holding an op it conflicts with.
func deriveTasks(ops []op) []task {
	var tasks []task
	for i := range ops {
		n := len(tasks)
		if n == 0 || ops[tasks[n-1].first].dst != ops[i].dst {
			tasks = append(tasks, task{first: i})
			n++
		}
		cur := &tasks[n-1]
		cur.last = i + 1
		for j, prev := range tasks[:n-1] {
			for u := prev.first; u < prev.last && !slices.Contains(cur.deps, j); u++ {
				if conflict(&ops[u], &ops[i]) {
					cur.deps = append(cur.deps, j)
				}
			}
		}
	}
	return tasks
}

// conflict reports whether op v must follow op u: v reads what u writes,
// or v writes what u reads or writes.
func conflict(u, v *op) bool {
	for _, r := range v.reads() {
		if aliases(u.dst, r) {
			return true
		}
	}
	for _, s := range append(u.reads(), u.dst) {
		if aliases(s, v.dst) {
			return true
		}
	}
	return false
}

// tablePrograms holds the programs compiled from one table; DAG programs
// are compiled per lane count on first use.
type tablePrograms struct {
	tbl        *algo.Table
	seq, fused *program
	dags       sync.Map // lanes → *program
}

// dag returns the table's DAG program for a level running lanes products
// at once.
func (tp *tablePrograms) dag(lanes int) *program {
	if p, ok := tp.dags.Load(lanes); ok {
		return p.(*program)
	}
	p, _ := tp.dags.LoadOrStore(lanes, compileDAG(tp.tbl, lanes))
	return p.(*program)
}

var compiled sync.Map // *algo.Table → *tablePrograms

// programsFor returns the table's compiled programs, compiling them on
// first use.
func programsFor(t *algo.Table) *tablePrograms {
	if p, ok := compiled.Load(t); ok {
		return p.(*tablePrograms)
	}
	p := &tablePrograms{
		tbl:   t,
		seq:   compileTable(t, "table"),
		fused: &program{name: "fused1", m: t.M, k: t.K, n: t.N, recs: tableFusedRecords(t)},
	}
	actual, _ := compiled.LoadOrStore(t, p)
	return actual.(*tablePrograms)
}

// original is Strassen's 1969 construction (7 multiplies, 18 adds) for
// the paper's Winograd-vs-original comparison (equations (4) and (5)):
// the compiled classic table, under its schedule's trace name.
var original = func() *program {
	t, _ := algo.ByName("classic")
	return compileTable(t, "original")
}()
