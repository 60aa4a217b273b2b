package cluster

import (
	"errors"
	"math"
	"testing"

	"vrcg/cluster/wire"
)

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := make([]int, 0, n)
			q = append(q, p[:at]...)
			q = append(q, n-1)
			q = append(q, p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestRedAccShardOrderSum: the coordinator's combine gives bitwise the
// same sums for every arrival order of four shards' partials. The
// partials are chosen so that summing in arrival order would not: with
// 1e16 ± 1 terms, which ones cancel first decides whether the 1s
// survive.
func TestRedAccShardOrderSum(t *testing.T) {
	partials := [][]float64{
		{1e16, 0.1, -3},
		{1, 0.2, 1e-300},
		{-1e16, 0.3, 3},
		{1, 1e-17, -1e-300},
	}
	var want []float64
	arrivalSums := map[uint64]bool{}
	for _, order := range permutations(len(partials)) {
		a := newRedAcc(len(partials))
		var got []float64
		naive := 0.0
		for k, shard := range order {
			vals := append([]float64(nil), partials[shard]...)
			naive += vals[0]
			sums, err := a.add(shard, vals)
			if err != nil {
				t.Fatalf("order %v: %v", order, err)
			}
			if (sums != nil) != (k == len(order)-1) {
				t.Fatalf("order %v: sums returned after %d of %d partials", order, k+1, len(order))
			}
			got = sums
		}
		arrivalSums[math.Float64bits(naive)] = true
		if want == nil {
			want = append([]float64(nil), got...)
			continue
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("order %v: sum[%d] = %.17g, shard order gives %.17g", order, i, got[i], want[i])
			}
		}
	}
	if len(arrivalSums) < 2 {
		t.Fatal("arrival-order sums all agree: the partials do not exercise the ordering")
	}
	if want[0] != 1 {
		t.Fatalf("shard-order sum[0] = %v, want ((1e16+1)-1e16)+1 = 1", want[0])
	}
}

// TestRedAccRejectsBadPartials: a shard outside the plan, a second
// partial from the same shard, and a partial of the wrong arity are
// frame errors.
func TestRedAccRejectsBadPartials(t *testing.T) {
	a := newRedAcc(3)
	if _, err := a.add(3, []float64{1}); !errors.Is(err, wire.ErrFrame) {
		t.Fatalf("out-of-range shard: err = %v, want ErrFrame", err)
	}
	if _, err := a.add(-1, []float64{1}); !errors.Is(err, wire.ErrFrame) {
		t.Fatalf("unknown worker: err = %v, want ErrFrame", err)
	}
	if _, err := a.add(1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.add(1, []float64{1, 2}); !errors.Is(err, wire.ErrFrame) {
		t.Fatalf("duplicate shard: err = %v, want ErrFrame", err)
	}
	if _, err := a.add(0, []float64{1}); !errors.Is(err, wire.ErrFrame) {
		t.Fatalf("arity mismatch: err = %v, want ErrFrame", err)
	}
}
