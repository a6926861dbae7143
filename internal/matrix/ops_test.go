package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// opsCase builds a destination (optionally a strided sub-view) and two
// sources (optionally transposed views of strided parents) for kernel tests.
func opsCase(t *testing.T, rng *rand.Rand, r, c int, transA, transB, strided bool) (dst *Dense, a, b View, aRef, bRef *Dense) {
	t.Helper()
	mk := func(trans bool) (View, *Dense) {
		pr, pc := r, c
		if trans {
			pr, pc = c, r
		}
		parent := NewRandom(pr+2, pc+2, rng)
		sub := parent.Slice(1, 1, pr, pc)
		v := View{Rows: pr, Cols: pc, Stride: sub.Stride, Data: sub.Data}
		if trans {
			v = View{Rows: pc, Cols: pr, Stride: sub.Stride, Trans: true, Data: sub.Data}
		}
		return v, v.Dense()
	}
	a, aRef = mk(transA)
	b, bRef = mk(transB)
	if strided {
		parent := NewRandom(r+3, c+3, rng)
		dst = parent.Slice(2, 2, r, c)
	} else {
		dst = NewRandom(r, c, rng)
	}
	return dst, a, b, aRef, bRef
}

func forAllTransCombos(t *testing.T, f func(t *testing.T, ta, tb, strided bool)) {
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			for _, s := range []bool{false, true} {
				f(t, ta, tb, s)
			}
		}
	}
}

func TestAddAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	forAllTransCombos(t, func(t *testing.T, ta, tb, strided bool) {
		dst, a, b, aRef, bRef := opsCase(t, rng, 4, 5, ta, tb, strided)
		Add(dst, a, b)
		for i := 0; i < 4; i++ {
			for j := 0; j < 5; j++ {
				want := aRef.At(i, j) + bRef.At(i, j)
				if dst.At(i, j) != want {
					t.Fatalf("Add ta=%v tb=%v strided=%v wrong at (%d,%d)", ta, tb, strided, i, j)
				}
			}
		}
	})
}

func TestSubAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	forAllTransCombos(t, func(t *testing.T, ta, tb, strided bool) {
		dst, a, b, aRef, bRef := opsCase(t, rng, 5, 4, ta, tb, strided)
		Sub(dst, a, b)
		for i := 0; i < 5; i++ {
			for j := 0; j < 4; j++ {
				want := aRef.At(i, j) - bRef.At(i, j)
				if dst.At(i, j) != want {
					t.Fatalf("Sub wrong ta=%v tb=%v", ta, tb)
				}
			}
		}
	})
}

func TestAddAssignAndSubAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, trans := range []bool{false, true} {
		dst, a, _, aRef, _ := opsCase(t, rng, 3, 6, trans, false, true)
		orig := dst.Clone()
		AddAssign(dst, a)
		for i := 0; i < 3; i++ {
			for j := 0; j < 6; j++ {
				if dst.At(i, j) != orig.At(i, j)+aRef.At(i, j) {
					t.Fatal("AddAssign wrong")
				}
			}
		}
		SubAssign(dst, a)
		if !dst.EqualApprox(orig, 1e-15) {
			t.Fatal("SubAssign should undo AddAssign")
		}
	}
}

func TestRevSubAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, trans := range []bool{false, true} {
		dst, a, _, aRef, _ := opsCase(t, rng, 4, 4, trans, false, false)
		orig := dst.Clone()
		RevSubAssign(dst, a)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if dst.At(i, j) != aRef.At(i, j)-orig.At(i, j) {
					t.Fatal("RevSubAssign wrong")
				}
			}
		}
	}
}

func TestAxpby(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, trans := range []bool{false, true} {
		for _, ab := range [][2]float64{{1, 1}, {2, 0}, {-0.5, 3}, {0, 2}, {1, 0}} {
			alpha, beta := ab[0], ab[1]
			dst, x, _, xRef, _ := opsCase(t, rng, 3, 3, trans, false, true)
			orig := dst.Clone()
			Axpby(dst, alpha, x, beta)
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					want := alpha*xRef.At(i, j) + beta*orig.At(i, j)
					if diff := dst.At(i, j) - want; diff > 1e-15 || diff < -1e-15 {
						t.Fatalf("Axpby(%v,%v) trans=%v wrong", alpha, beta, trans)
					}
				}
			}
		}
	}
}

// TestAxpbyBetaZeroDoesNotReadDst: beta = 0 overwrites dst without reading
// it, so NaN and Inf in dst do not reach the result.
func TestAxpbyBetaZeroDoesNotReadDst(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, trans := range []bool{false, true} {
		dst, x, _, xRef, _ := opsCase(t, rng, 3, 3, trans, false, true)
		for i := range dst.Data {
			dst.Data[i] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
		}
		Axpby(dst, 2, x, 0)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if got, want := dst.At(i, j), 2*xRef.At(i, j); got != want {
					t.Fatalf("trans=%v: dst(%d,%d) = %v, want %v", trans, i, j, got, want)
				}
			}
		}
	}
}

func TestCopyScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, trans := range []bool{false, true} {
		dst, x, _, xRef, _ := opsCase(t, rng, 2, 5, trans, false, false)
		CopyScaled(dst, -2, x)
		for i := 0; i < 2; i++ {
			for j := 0; j < 5; j++ {
				if dst.At(i, j) != -2*xRef.At(i, j) {
					t.Fatal("CopyScaled wrong")
				}
			}
		}
	}
}

func TestAddSubAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	forAllTransCombos(t, func(t *testing.T, ta, tb, strided bool) {
		dst, x, y, xRef, yRef := opsCase(t, rng, 4, 3, ta, tb, strided)
		orig := dst.Clone()
		AddSubAssign(dst, x, y)
		for i := 0; i < 4; i++ {
			for j := 0; j < 3; j++ {
				want := xRef.At(i, j) - yRef.At(i, j) - orig.At(i, j)
				if dst.At(i, j) != want {
					t.Fatal("AddSubAssign wrong")
				}
			}
		}
	})
}

func TestOpsShapeMismatchPanics(t *testing.T) {
	a := ViewOf(NewDense(2, 3))
	b := ViewOf(NewDense(3, 2))
	dst := NewDense(2, 3)
	for name, f := range map[string]func(){
		"Add":          func() { Add(dst, a, b) },
		"Sub":          func() { Sub(dst, a, b) },
		"AddAssign":    func() { AddAssign(dst, b) },
		"SubAssign":    func() { SubAssign(dst, b) },
		"RevSubAssign": func() { RevSubAssign(dst, b) },
		"Axpby":        func() { Axpby(dst, 1, b, 1) },
		"CopyScaled":   func() { CopyScaled(dst, 1, b) },
		"AddSubAssign": func() { AddSubAssign(dst, a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want shape panic", name)
				}
			}()
			f()
		}()
	}
}

func TestViewSliceTransposed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewRandom(6, 8, rng)
	v := ViewOp(m, true) // logical 8×6
	if v.Rows != 8 || v.Cols != 6 {
		t.Fatal("ViewOp shape")
	}
	sub := v.Slice(2, 1, 3, 4) // rows 2..4, cols 1..4 of mᵀ
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if sub.At(i, j) != m.At(1+j, 2+i) {
				t.Fatalf("transposed subview wrong at (%d,%d)", i, j)
			}
		}
	}
	d := sub.Dense()
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if d.At(i, j) != sub.At(i, j) {
				t.Fatal("Materialize wrong")
			}
		}
	}
}

func TestViewSliceUntransposedAliases(t *testing.T) {
	m := NewDense(4, 4)
	v := ViewOf(m)
	sub := v.Slice(1, 1, 2, 2)
	m.Set(1, 1, 5)
	if sub.At(0, 0) != 5 {
		t.Fatal("view slice must alias")
	}
}

func TestViewSliceOutOfRangePanics(t *testing.T) {
	v := ViewOf(NewDense(3, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	v.Slice(0, 0, 4, 1)
}

func TestNorms(t *testing.T) {
	m := FromRows([][]float64{{1, -2}, {-3, 4}})
	if MaxAbs(m) != 4 {
		t.Fatal("MaxAbs")
	}
	if OneNorm(m) != 6 { // max column abs sum: |{-2,4}| = 6? cols: {1,-3}→4, {-2,4}→6
		t.Fatalf("OneNorm = %v", OneNorm(m))
	}
	if InfNorm(m) != 7 { // rows: 3, 7
		t.Fatalf("InfNorm = %v", InfNorm(m))
	}
	f := FrobeniusNorm(m)
	if d := f*f - 30; d > 1e-12 || d < -1e-12 {
		t.Fatalf("Frobenius² = %v, want 30", f*f)
	}
	other := FromRows([][]float64{{1, -2}, {-3, 3}})
	if MaxAbsDiff(m, other) != 1 {
		t.Fatal("MaxAbsDiff")
	}
}

func TestFrobeniusNoOverflow(t *testing.T) {
	m := NewDense(2, 1)
	m.Set(0, 0, 1e200)
	m.Set(1, 0, 1e200)
	got := FrobeniusNorm(m)
	want := 1e200 * 1.4142135623730951
	if rel := (got - want) / want; rel > 1e-12 || rel < -1e-12 {
		t.Fatalf("overflow-guarded norm wrong: %v", got)
	}
}

// TestPaddedOpsMatchZeroPaddedCopies: a view that stores only part of its
// shape (View.PadTo) must behave in every elementwise operation exactly
// like a zero-padded copy, bit for bit — the padding enters as +0.0
// through the same arithmetic (0 − x, not −x), so signed zeros and NaNs
// agree. Sources store all, part or none of the domain, transposed or
// not, and their values mix signed zeros and NaN into random ones.
func TestPaddedOpsMatchZeroPaddedCopies(t *testing.T) {
	const r, c = 7, 5
	rng := rand.New(rand.NewSource(5))
	value := func() float64 {
		switch rng.Intn(7) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			return math.NaN()
		}
		return rng.Float64()*2 - 1
	}
	// padded returns a view storing sr×sc of r×c, and its zero-padded copy.
	padded := func(sr, sc int, trans bool) (View, View) {
		pr, pc := sr, sc
		if trans {
			pr, pc = sc, sr
		}
		store := NewDense(pr+1, pc+1)
		for i := range store.Data {
			store.Data[i] = value()
		}
		v := View{Rows: sr, Cols: sc, Stride: store.Stride, Trans: trans, Data: store.Data}
		ref := NewDense(r, c)
		v.Materialize(ref.Slice(0, 0, sr, sc))
		return v.PadTo(r, c), ViewOf(ref)
	}
	ops := []struct {
		name string
		run  func(dst *Dense, x, y View)
	}{
		{"Add", func(d *Dense, x, y View) { Add(d, x, y) }},
		{"Sub", func(d *Dense, x, y View) { Sub(d, x, y) }},
		{"AddAssign", func(d *Dense, x, _ View) { AddAssign(d, x) }},
		{"SubAssign", func(d *Dense, x, _ View) { SubAssign(d, x) }},
		{"RevSubAssign", func(d *Dense, x, _ View) { RevSubAssign(d, x) }},
		{"AddSubAssign", func(d *Dense, x, y View) { AddSubAssign(d, x, y) }},
		{"Axpby(1,0)", func(d *Dense, x, _ View) { Axpby(d, 1, x, 0) }},
		{"Axpby(1,1)", func(d *Dense, x, _ View) { Axpby(d, 1, x, 1) }},
		{"Axpby(-0.75,0.5)", func(d *Dense, x, _ View) { Axpby(d, -0.75, x, 0.5) }},
		{"CopyScaled(-1)", func(d *Dense, x, _ View) { CopyScaled(d, -1, x) }},
		{"Materialize", func(d *Dense, x, _ View) { x.Materialize(d) }},
	}
	extents := [][2]int{{r, c}, {r - 1, c}, {r, c - 2}, {r - 3, c - 1}, {0, 0}}
	for _, op := range ops {
		for _, ex := range extents {
			for _, ey := range extents {
				for _, ta := range []bool{false, true} {
					x, xr := padded(ex[0], ex[1], ta)
					y, yr := padded(ey[0], ey[1], !ta)
					d0 := NewDense(r, c)
					for i := range d0.Data {
						d0.Data[i] = value()
					}
					got, want := d0.Clone(), d0.Clone()
					op.run(got, x, y)
					op.run(want, xr, yr)
					for i := range got.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("%s x stores %v y stores %v trans=%v: word %d is %v padded, %v on the copy",
								op.name, ex, ey, ta, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestPaddedViewSlice: a slice of a padded view stores what the view
// stores of the region, nothing when the region lies past the stored
// part, and reads the rest as +0.0.
func TestPaddedViewSlice(t *testing.T) {
	base := NewDense(3, 2) // stored part of a 5×4 logical view
	for i := range base.Data {
		base.Data[i] = float64(i + 1)
	}
	v := ViewOf(base).PadTo(5, 4)
	if v.PadRows != 2 || v.PadCols != 2 || !v.Padded() {
		t.Fatalf("PadTo: pads %d×%d", v.PadRows, v.PadCols)
	}
	s := v.Slice(2, 1, 3, 3)
	if s.PadRows != 2 || s.PadCols != 2 || s.At(0, 0) != base.At(2, 1) || s.At(1, 0) != 0 || s.At(0, 1) != 0 {
		t.Errorf("Slice(2,1,3,3): pads %d×%d, At(0,0)=%v", s.PadRows, s.PadCols, s.At(0, 0))
	}
	if e := v.Slice(3, 0, 2, 4); e.PadRows != 2 || e.PadCols != 4 || e.Data != nil || e.Stored().Rows != 0 {
		t.Errorf("a region past the stored rows stores %d×%d", e.Rows-e.PadRows, e.Cols-e.PadCols)
	}
	if st := v.Stored(); st.Rows != 3 || st.Cols != 2 || st.Padded() {
		t.Errorf("Stored: %d×%d padded=%v", st.Rows, st.Cols, st.Padded())
	}
}
