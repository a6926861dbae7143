package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// linValue draws a test entry: mostly uniform in [−1, 1), with NaN, ±Inf and
// ±0 mixed in.
func linValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	}
	return rng.Float64()*2 - 1
}

// sameBits reports whether got is want bit for bit, or both are NaN (which
// NaN an operation returns is the hardware's choice).
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// linSource builds an r×c source view inside a larger strided parent:
// transposed or not, and padded (storing only sr×sc) when sr×sc is short of
// r×c. Every parent entry comes from fill.
func linSource(r, c, sr, sc int, trans bool, fill func() float64) View {
	pr, pc := sr, sc
	if trans {
		pr, pc = sc, sr
	}
	parent := NewDense(pr+2, pc+3)
	for i := range parent.Data {
		parent.Data[i] = fill()
	}
	sub := parent.Slice(1, 2, pr, pc)
	v := View{Rows: sr, Cols: sc, Stride: sub.Stride, Trans: trans, Data: sub.Data}
	if sr == 0 || sc == 0 {
		v.Data = nil
	}
	return v.PadTo(r, c)
}

// TestLin checks the elementwise kernel against a per-element reference loop
// of its contract: terms summed left to right, each product rounded, zero
// coefficients read nothing, a Dst term reads dst's old value, padding reads
// +0.0. The table gives each term count's coefficients (±1, general and
// zero; five and seven terms run as chains of the 1–4-term loops); every
// row runs with dst at each term position and at none, on plain, transposed,
// padded and mixed sources. Entries mix NaN, ±Inf and ±0 into random ones,
// and 70 rows make the staged (transposed or chained) path take two chunks.
func TestLin(t *testing.T) {
	const r, c = 70, 5
	rng := rand.New(rand.NewSource(11))
	random := func() float64 { return linValue(rng) }
	unread := func() float64 { return math.NaN() }
	for _, gs := range [][]float64{
		{1}, {-1}, {0.75}, {0},
		{1, 1}, {1, -1}, {-1, 1}, {-1, -1}, {0.5, -2.5}, {1, 0}, {0, 1}, {0, 0},
		{1, -1, -1}, {1, 1, 1}, {-3, 0.25, 1}, {1, 0, -1},
		{1, -1, 1, -1}, {0.5, 1, -1, 2}, {1, 1, 0, 1},
		{1, -1, 0.5, 1, -1}, {1, 1, -1, 1, 1, 1, -0.25},
	} {
		for at := -1; at < len(gs); at++ {
			for variant := 0; variant < 6; variant++ {
				name := fmt.Sprintf("g=%v dst@%d variant %d", gs, at, variant)
				terms := make([]Term, len(gs))
				for k, g := range gs {
					terms[k].G = g
					if k == at {
						terms[k].Dst = true
						continue
					}
					// Variant 0: plain sources; 1: all transposed; 2–5: a
					// random mix of transposed and padded ones.
					trans, sr, sc := variant == 1, r, c
					if variant >= 2 {
						trans = rng.Intn(2) == 0
						if rng.Intn(2) == 0 {
							sr, sc = r-rng.Intn(r+1), c-rng.Intn(c+1)
						}
					}
					fill := random
					if g == 0 {
						fill = unread
					}
					terms[k].X = linSource(r, c, sr, sc, trans, fill)
				}
				parent := NewDense(r+3, c+2)
				for i := range parent.Data {
					parent.Data[i] = random()
					if at >= 0 && gs[at] == 0 {
						parent.Data[i] = math.NaN()
					}
				}
				before := parent.Clone()
				dst := parent.Slice(2, 1, r, c)
				Lin(dst, terms...)
				for pi := 0; pi < parent.Rows; pi++ {
					for pj := 0; pj < parent.Cols; pj++ {
						i, j := pi-2, pj-1
						got, want := parent.At(pi, pj), before.At(pi, pj)
						if i >= 0 && i < r && j >= 0 && j < c {
							want = linReference(terms, i, j, want)
						}
						if !sameBits(got, want) {
							t.Fatalf("%s: (%d,%d) of the parent is %v, want %v", name, pi, pj, got, want)
						}
					}
				}
			}
		}
	}

	// Each product rounds before its add: 1/3·3 rounds to 1, so 1/3·3 − 1
	// is 0, where a fused multiply-add would leave −2⁻⁵⁴. The general term
	// sits at every position of two to four terms, the others summing −1
	// and +0, on plain and transposed sources.
	third := 1.0 / 3
	if math.FMA(third, 3, -1) == 0 {
		t.Fatal("the FMA case does not separate: fma(1/3, 3, −1) is 0")
	}
	constant := func(v float64, trans bool) View {
		return linSource(r, c, r, c, trans, func() float64 { return v })
	}
	for n := 2; n <= 4; n++ {
		for pos := 0; pos < n; pos++ {
			for _, trans := range []bool{false, true} {
				terms := make([]Term, n)
				for k := range terms {
					switch {
					case k == pos:
						terms[k] = Term{G: third, X: constant(3, trans)}
					case k == (pos+1)%n:
						terms[k] = Term{G: -1, X: constant(1, trans)}
					default:
						terms[k] = Term{G: 1, X: constant(0, trans)}
					}
				}
				dst := NewDense(r, c)
				Lin(dst, terms...)
				for i, v := range dst.Data {
					if math.Float64bits(v) != 0 {
						t.Fatalf("%d terms, 1/3 at %d, trans=%v: word %d is %v, want +0 (contracted into an FMA?)", n, pos, trans, i, v)
					}
				}
			}
		}
	}
}

// linReference is Lin's contract at element (i, j) whose old dst value is
// d, written as a plain loop.
func linReference(terms []Term, i, j int, d float64) float64 {
	sum, started := 0.0, false
	for _, tm := range terms {
		if tm.G == 0 {
			continue
		}
		x := d
		if !tm.Dst {
			x = tm.X.At(i, j)
		}
		if p := float64(tm.G * x); started {
			sum = sum + p
		} else {
			sum, started = p, true
		}
	}
	return sum
}

func TestOpsShapeMismatchPanics(t *testing.T) {
	a := ViewOf(NewDense(2, 3))
	b := ViewOf(NewDense(3, 2))
	dst := NewDense(2, 3)
	for name, terms := range map[string][]Term{
		"x":          {{G: 1, X: b}},
		"x+y":        {{G: 1, X: a}, {G: -1, X: b}},
		"dst+x":      {{G: 1, Dst: true}, {G: 2, X: b}},
		"zero coeff": {{G: 1, X: a}, {G: 0, X: b}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want shape panic", name)
				}
			}()
			Lin(dst, terms...)
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
		v := linSource(r, c, sr, sc, trans, value)
		ref := NewDense(r, c)
		v.Stored().Materialize(ref.Slice(0, 0, sr, sc))
		return v, ViewOf(ref)
	}
	dst := Term{G: 1, Dst: true}
	ops := []struct {
		name  string
		terms func(x, y View) []Term
	}{
		{"x+y", func(x, y View) []Term { return []Term{{G: 1, X: x}, {G: 1, X: y}} }},
		{"x−y", func(x, y View) []Term { return []Term{{G: 1, X: x}, {G: -1, X: y}} }},
		{"dst+x", func(x, _ View) []Term { return []Term{dst, {G: 1, X: x}} }},
		{"dst−x", func(x, _ View) []Term { return []Term{dst, {G: -1, X: x}} }},
		{"x−dst", func(x, _ View) []Term { return []Term{{G: 1, X: x}, {G: -1, Dst: true}} }},
		{"x−y−dst", func(x, y View) []Term { return []Term{{G: 1, X: x}, {G: -1, X: y}, {G: -1, Dst: true}} }},
		{"x+0·dst", func(x, _ View) []Term { return []Term{{G: 1, X: x}, {G: 0, Dst: true}} }},
		{"−0.75x+0.5dst", func(x, _ View) []Term { return []Term{{G: -0.75, X: x}, {G: 0.5, Dst: true}} }},
		{"dst+1.5x", func(x, _ View) []Term { return []Term{dst, {G: 1.5, X: x}} }},
		{"−x", func(x, _ View) []Term { return []Term{{G: -1, X: x}} }},
		{"x+y−x+2y", func(x, y View) []Term { return []Term{{G: 1, X: x}, {G: 1, X: y}, {G: -1, X: x}, {G: 2, X: y}} }},
		{"Materialize", nil},
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
					if op.terms == nil {
						x.Materialize(got)
						xr.Materialize(want)
					} else {
						Lin(got, op.terms(x, y)...)
						Lin(want, op.terms(xr, yr)...)
					}
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
