package vec

import (
	"math"
	"testing"
)

// listOperands returns count random vectors of length n.
func listOperands(n, count int, seed uint64) []Vector {
	vs := make([]Vector, count)
	for i := range vs {
		vs[i] = New(n)
		Random(vs[i], seed+uint64(i))
	}
	return vs
}

// TestDotListBitwiseDot: every DotList entry is bitwise Dot of its pair,
// serially and pooled at every worker count, for sizes straddling the
// leaf and line boundaries, with operands shared between pairs (as the
// s-step Gram pairs share their power vectors).
func TestDotListBitwiseDot(t *testing.T) {
	sizes := []int{1, BlockLen - 1, BlockLen, BlockLen + 1, 3 * BlockLen, 8*BlockLen + 17, 40*BlockLen + 5}
	for _, n := range sizes {
		vs := listOperands(n, 5, 300)
		xs := []Vector{vs[0], vs[0], vs[1], vs[2], vs[3], vs[4], vs[4]}
		ys := []Vector{vs[0], vs[1], vs[1], vs[4], vs[2], vs[0], vs[4]}
		want := make([]float64, len(xs))
		for k := range xs {
			want[k] = Dot(xs[k], ys[k])
		}
		out := make([]float64, len(xs))
		DotList(xs, ys, out)
		for k := range out {
			if math.Float64bits(out[k]) != math.Float64bits(want[k]) {
				t.Fatalf("n=%d serial DotList[%d] = %.17g, Dot %.17g", n, k, out[k], want[k])
			}
		}
		for _, w := range []int{2, 3, 4, 7} {
			p := NewPoolMinChunk(w, 1)
			clear(out)
			p.DotList(xs, ys, out)
			for k := range out {
				if math.Float64bits(out[k]) != math.Float64bits(want[k]) {
					t.Fatalf("n=%d w=%d pooled DotList[%d] = %.17g, Dot %.17g", n, w, k, out[k], want[k])
				}
			}
			p.Close()
		}
	}
}

// TestDotListShapes: mismatched list or operand lengths panic, and an
// empty list is a no-op on both forms.
func TestDotListShapes(t *testing.T) {
	p := NewPoolMinChunk(2, 1)
	defer p.Close()
	DotList(nil, nil, nil)
	p.DotList(nil, nil, nil)
	a, b := New(4), New(5)
	for name, f := range map[string]func(){
		"list lengths":    func() { DotList([]Vector{a}, nil, make([]float64, 1)) },
		"output length":   func() { p.DotList([]Vector{a}, []Vector{a}, nil) },
		"operand lengths": func() { p.DotList([]Vector{a}, []Vector{b}, make([]float64, 1)) },
		"mixed pairs":     func() { DotList([]Vector{a, b}, []Vector{a, b}, make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestLincombBlockMatchesZeroAxpyBlock: the assign-form block update is
// bitwise Zero + AxpyBlock (+ Add into the accumulator), serially and
// pooled. Zero coefficients must be skipped exactly as Axpy skips them:
// a basis vector holding Inf with a zero coefficient leaves the outputs
// finite.
func TestLincombBlockMatchesZeroAxpyBlock(t *testing.T) {
	sizes := []int{1, BlockLen - 1, BlockLen + 1, 8*BlockLen + 17, 40*BlockLen + 5}
	for _, n := range sizes {
		xs := listOperands(n, 5, 700)
		xs[4][n/2] = math.Inf(1)
		const nys = 3
		coef := make([]float64, len(xs)*nys)
		Random(coef, 77)
		for j := 0; j < nys; j++ {
			coef[4*nys+j] = 0 // the Inf row never contributes
		}
		coef[1*nys+2] = 0 // a gap inside a combination
		acc0 := New(n)
		Random(acc0, 78)

		want := make([]Vector, nys)
		for j := range want {
			want[j] = New(n)
		}
		AxpyBlock(coef, xs, want)
		wantAcc := Clone(acc0)
		Add(wantAcc, wantAcc, want[0])

		check := func(label string, ys []Vector, acc Vector) {
			t.Helper()
			for j := range ys {
				if !Equal(ys[j], want[j]) {
					t.Fatalf("n=%d %s: output %d differs bitwise from Zero+AxpyBlock", n, label, j)
				}
				if HasNaN(ys[j]) {
					t.Fatalf("n=%d %s: output %d picked up the zero-weighted Inf", n, label, j)
				}
			}
			if !Equal(acc, wantAcc) {
				t.Fatalf("n=%d %s: accumulator differs bitwise from Add", n, label)
			}
		}
		fresh := func() ([]Vector, Vector) {
			ys := make([]Vector, nys)
			for j := range ys {
				ys[j] = New(n)
				Fill(ys[j], math.NaN()) // assign form: prior contents are ignored
			}
			return ys, Clone(acc0)
		}
		ys, acc := fresh()
		LincombBlock(coef, xs, ys, acc)
		check("serial", ys, acc)
		for _, w := range []int{2, 3, 4, 7} {
			p := NewPoolMinChunk(w, 1)
			ys, acc := fresh()
			p.LincombBlock(coef, xs, ys, acc)
			check("pooled", ys, acc)
			ys, _ = fresh()
			p.LincombBlock(coef, xs, ys, nil)
			for j := range ys {
				if !Equal(ys[j], want[j]) {
					t.Fatalf("n=%d w=%d: nil-accumulator output %d differs", n, w, j)
				}
			}
			p.Close()
		}
	}
}

// TestPoolZeroAllocListKernels: warm pooled DotList, LincombBlock and
// DotBlock (now a DotList over its cross product) allocate nothing.
func TestPoolZeroAllocListKernels(t *testing.T) {
	n := 1 << 15
	vs := listOperands(n, 6, 900)
	xs := []Vector{vs[0], vs[1], vs[2], vs[3]}
	ys := []Vector{vs[1], vs[2], vs[3], vs[0]}
	out := make([]float64, 4)
	block := make([]float64, 16)
	coef := make([]float64, 4*2)
	Random(coef, 5)
	outs := []Vector{vs[4], vs[5]}
	acc := New(n)
	p := NewPoolMinChunk(4, 64)
	defer p.Close()
	p.DotList(xs, ys, out) // warm: workers + batch slab
	p.DotBlock(xs, ys, block)
	p.LincombBlock(coef, xs, outs, acc)
	if avg := testing.AllocsPerRun(100, func() { p.DotList(xs, ys, out) }); avg != 0 {
		t.Errorf("pooled DotList allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.DotBlock(xs, ys, block) }); avg != 0 {
		t.Errorf("pooled DotBlock allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.LincombBlock(coef, xs, outs, acc) }); avg != 0 {
		t.Errorf("pooled LincombBlock allocates %v per call, want 0", avg)
	}
}
