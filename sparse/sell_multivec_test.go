package sparse

import (
	"math"
	"runtime"
	"testing"

	"vrcg/internal/vec"
)

// TestTuneMulVecMultiMulVec: the operator the engine tunes large CSRs
// to keeps the one-pass multi-vector product, so block solvers and the
// s-step matrix powers do not fall back to per-column SpMV on exactly
// the operators it was built for.
func TestTuneMulVecMultiMulVec(t *testing.T) {
	op := TuneMulVec(Poisson3D(24))
	if _, ok := op.(*SELL); !ok {
		t.Fatalf("TuneMulVec(Poisson3D(24)) = %T, want *SELL", op)
	}
	if _, ok := op.(MultiMulVec); !ok {
		t.Fatalf("tuned operator %T does not implement MultiMulVec", op)
	}
}

// TestSELLMulVecsPoolBitwise: every column of SELL.MulVecsPool is
// bitwise SELL.MulVec of that column, at widths 1-9
// (the column pairs and the odd remainder), serially and across worker
// counts, on matrices with padded chunks (skewed rows, and orders that
// are not a multiple of the chunk height).
func TestSELLMulVecsPoolBitwise(t *testing.T) {
	mats := map[string]*CSR{
		"skewed":    skewedCSR(1501, 97, 60),
		"arrow":     irregularCSR(513),
		"poisson3d": Poisson3D(11),
	}
	for name, a := range mats {
		s := a.ToSELL()
		if s.PaddedNNZ() == s.NNZ() {
			t.Fatalf("%s: no padded chunks; the test would not cover padding", name)
		}
		n := s.Dim()
		for width := 1; width <= 9; width++ {
			xs := make([][]float64, width)
			want := make([][]float64, width)
			dsts := make([][]float64, width)
			for j := range xs {
				xs[j] = vec.New(n)
				vec.Random(xs[j], uint64(31*n+j))
				want[j] = vec.New(n)
				s.MulVec(want[j], xs[j])
				dsts[j] = vec.New(n)
				vec.Fill(dsts[j], math.NaN())
			}
			s.MulVecsPool(nil, dsts, xs)
			for j := range dsts {
				if !vec.Equal(want[j], dsts[j]) {
					t.Fatalf("%s width=%d: serial MulVecsPool column %d differs from MulVec", name, width, j)
				}
			}
			for _, w := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
				pool := vec.NewPoolMinChunk(w, 1)
				for j := range dsts {
					vec.Fill(dsts[j], math.NaN())
				}
				s.MulVecsPool(pool, dsts, xs)
				for j := range dsts {
					if !vec.Equal(want[j], dsts[j]) {
						t.Fatalf("%s width=%d workers=%d: MulVecsPool column %d differs from MulVec", name, width, w, j)
					}
				}
				pool.Close()
			}
		}
	}
}

// TestSELLMulVecsPoolZeroAlloc: a warm pooled SELL multi-vector product
// allocates nothing — it runs inside every s-step block.
func TestSELLMulVecsPoolZeroAlloc(t *testing.T) {
	s := Poisson2D(64).ToSELL() // n=4096
	pool := vec.NewPoolMinChunk(4, 64)
	defer pool.Close()
	xs := [][]float64{vec.New(s.Dim()), vec.New(s.Dim())}
	dsts := [][]float64{vec.New(s.Dim()), vec.New(s.Dim())}
	vec.Random(xs[0], 5)
	vec.Random(xs[1], 6)
	s.MulVecsPool(pool, dsts, xs) // warm partition cache + workers
	if avg := testing.AllocsPerRun(100, func() { s.MulVecsPool(pool, dsts, xs) }); avg != 0 {
		t.Errorf("warm SELL.MulVecsPool allocates %v per call, want 0", avg)
	}
}
