package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
)

// floatBytes serializes vectors as little-endian IEEE-754 bits.
func floatBytes(vs ...[]float64) []byte {
	var out []byte
	for _, v := range vs {
		for _, x := range v {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
	}
	return out
}

// inputDigests hashes every input stream the workloads draw from seed:
// operation sequences, right-hand sides and upload bodies.
func inputDigests(t *testing.T, seed uint64) map[string][32]byte {
	t.Helper()
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	d := map[string][32]byte{
		"solve-large operations": sha256.Sum256(enc(solveSequence(seed, 2, largeMethods))),
		"cluster-2w operations":  sha256.Sum256(enc(solveSequence(seed, 2, clusterMethods))),
		"serve-warm operations":  sha256.Sum256(enc(indexSequence(seed, 1000, warmRHSCount))),
		"serve-warm rhs":         sha256.Sum256(floatBytes(randomRHS(seed, warmRHSCount, warmGrid*warmGrid)...)),
	}
	ops, err := churnOperators(seed, churnOpCount, churnGrid)
	if err != nil {
		t.Fatal(err)
	}
	jobs := churnSequence(seed, 40, churnOpCount)
	var uploads, rhs []byte
	for _, job := range jobs {
		uploads = append(uploads, uploadBody(job.Name, ops[job.Op].JSON)...)
		rhs = append(rhs, floatBytes(jobRHS(job, churnGrid*churnGrid)...)...)
	}
	d["serve-churn operations"] = sha256.Sum256(enc(jobs))
	d["serve-churn uploads"] = sha256.Sum256(uploads)
	d["serve-churn rhs"] = sha256.Sum256(rhs)
	return d
}

func TestInputsDeterministic(t *testing.T) {
	a, b, other := inputDigests(t, 7), inputDigests(t, 7), inputDigests(t, 8)
	for name, h := range a {
		if b[name] != h {
			t.Errorf("%s: seed 7 produced different bytes on a second generation", name)
		}
		if other[name] == h {
			t.Errorf("%s: seeds 7 and 8 produced identical bytes", name)
		}
	}
}

// Every seed must do the same numerical work on the periodic family, in
// a different order: each pass holds every family member once, solved
// by every method in the fixed order.
func TestSolveSequenceCoversFamily(t *testing.T) {
	key := func(ops []solveOp) []string {
		var out []string
		for _, op := range ops {
			out = append(out, op.Method+string(rune('a'+op.RHS.P))+string(rune('a'+op.RHS.S)))
		}
		sort.Strings(out)
		return out
	}
	fam := len(family())
	if fam != 23 {
		t.Fatalf("family has %d members, want 5+7+11 = 23", fam)
	}
	s1, s2 := solveSequence(1, 2, largeMethods), solveSequence(2, 2, largeMethods)
	if len(s1) != 2*fam*len(largeMethods) {
		t.Fatalf("sequence has %d operations, want %d", len(s1), 2*fam*len(largeMethods))
	}
	if !reflect.DeepEqual(key(s1), key(s2)) {
		t.Error("seeds 1 and 2 solve different multisets of (method, right-hand side)")
	}
	for i, op := range s1 {
		if want := largeMethods[i%len(largeMethods)]; op.Method != want {
			t.Fatalf("operation %d runs %s, want %s (methods come in fixed order)", i, op.Method, want)
		}
		if i%len(largeMethods) != 0 && op.RHS != s1[i-1].RHS {
			t.Fatalf("operation %d changes right-hand side inside a round", i)
		}
	}
}

func TestPeriodicRHS(t *testing.T) {
	b := make([]float64, 8)
	periodicRHS{P: 5, S: 3}.fill(b)
	want := []float64{4, 5, 1, 2, 3, 4, 5, 1}
	if !reflect.DeepEqual(b, want) {
		t.Errorf("b = %v, want %v", b, want)
	}
}
