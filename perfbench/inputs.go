package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"vrcg/sparse"
)

// Seeded input generation. Every input a run hands the program — the
// operation order, each right-hand side, each uploaded operator — is a
// pure function of the workload seed (and of the run length, which
// fixes how many operations there are). Nothing here reads a clock.

// newRNG returns the generator for one input stream of a seed. Streams
// are separated by a fixed tag so that, say, the right-hand sides of a
// workload do not shift when its operation order draws more numbers.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

const (
	streamOrder uint64 = iota + 1
	streamRHS
	streamOperators
)

// periods is the periodic right-hand-side family b_i = 1 + ((i+s) mod p)
// the library and fleet workloads solve.
var periods = []int{5, 7, 11}

// periodicRHS names one member of the family.
type periodicRHS struct{ P, S int }

// family lists every member of the periodic family once: 5+7+11 = 23
// right-hand sides.
func family() []periodicRHS {
	var out []periodicRHS
	for _, p := range periods {
		for s := 0; s < p; s++ {
			out = append(out, periodicRHS{p, s})
		}
	}
	return out
}

// fill writes the right-hand side into b.
func (f periodicRHS) fill(b []float64) {
	for i := range b {
		b[i] = float64(1 + (i+f.S)%f.P)
	}
}

// solveOp is one library or fleet solve: a method on a family member.
type solveOp struct {
	Method string
	RHS    periodicRHS
}

// solveSequence returns cycles passes over the whole periodic family,
// each pass in its own seed-shuffled order, with every right-hand side
// solved by each method in the given fixed order. Each pass holds every
// family member exactly once, so every seed does the same numerical
// work in a different order: iteration counts and failure shares do
// not depend on which seed the run drew.
func solveSequence(seed uint64, cycles int, methods []string) []solveOp {
	rng := newRNG(seed, streamOrder)
	var ops []solveOp
	for c := 0; c < cycles; c++ {
		fam := family()
		rng.Shuffle(len(fam), func(i, j int) { fam[i], fam[j] = fam[j], fam[i] })
		for _, f := range fam {
			for _, m := range methods {
				ops = append(ops, solveOp{Method: m, RHS: f})
			}
		}
	}
	return ops
}

// randomRHS returns count seeded right-hand sides of length n with
// entries uniform in [0.5, 1.5).
func randomRHS(seed uint64, count, n int) [][]float64 {
	rng := newRNG(seed, streamRHS)
	out := make([][]float64, count)
	for k := range out {
		b := make([]float64, n)
		for i := range b {
			b[i] = 0.5 + rng.Float64()
		}
		out[k] = b
	}
	return out
}

// indexSequence returns ops seeded picks from [0, count).
func indexSequence(seed uint64, ops, count int) []int {
	rng := newRNG(seed, streamOrder)
	out := make([]int, ops)
	for i := range out {
		out[i] = rng.IntN(count)
	}
	return out
}

// churnOperator is one generated upload: the matrix the benchmark keeps
// for checking, and its JSON CSR envelope as the server receives it.
type churnOperator struct {
	A    *sparse.CSR
	JSON []byte // the sparse.WireMatrix document
}

// churnOperators returns count seeded variable-coefficient Poisson
// operators on an m×m grid. Each coefficient field is a smooth positive
// product of a seeded sine in x and a seeded cosine in y.
func churnOperators(seed uint64, count, m int) ([]churnOperator, error) {
	rng := newRNG(seed, streamOperators)
	out := make([]churnOperator, count)
	for k := range out {
		a1, a2 := rng.Float64(), rng.Float64()
		k1, k2 := float64(1+rng.IntN(3)), float64(1+rng.IntN(3))
		p1, p2 := rng.Float64(), rng.Float64()
		coef := func(x, y float64) float64 {
			return math.Exp(a1*math.Sin(2*math.Pi*(k1*x+p1)) + a2*math.Cos(2*math.Pi*(k2*y+p2)))
		}
		a, err := sparse.VarCoeffPoisson2D(m, coef)
		if err != nil {
			return nil, fmt.Errorf("churn operator %d: %w", k, err)
		}
		doc, err := json.Marshal(sparse.EncodeCSR(a))
		if err != nil {
			return nil, fmt.Errorf("churn operator %d: encode: %w", k, err)
		}
		out[k] = churnOperator{A: a, JSON: doc}
	}
	return out, nil
}

// uploadBody frames a POST /v1/operators body storing matrix doc under
// name.
func uploadBody(name string, doc []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(doc) + len(name) + 32)
	buf.WriteString(`{"name":"`)
	buf.WriteString(name)
	buf.WriteString(`","matrix":`)
	buf.Write(doc)
	buf.WriteString("}")
	return buf.Bytes()
}

// churnJob is one serve-churn operation: upload operator Op under a
// fresh name, then solve Solves right-hand sides against it (the first
// cold, the rest warm). RHSSeed seeds those right-hand sides.
type churnJob struct {
	Name    string
	Op      int
	RHSSeed uint64
}

// churnSolves is the number of solves per churn job: 1 cold + 3 warm.
const churnSolves = 4

// churnSequence returns jobs seeded churn jobs over count operators.
// Every run of count jobs uploads each operator once, in a seeded
// order, so every seed spreads its jobs evenly over its operators.
func churnSequence(seed uint64, jobs, count int) []churnJob {
	rng := newRNG(seed, streamOrder)
	out := make([]churnJob, jobs)
	var perm []int
	for j := range out {
		if j%count == 0 {
			perm = rng.Perm(count)
		}
		out[j] = churnJob{
			Name:    fmt.Sprintf("churn-%d", j),
			Op:      perm[j%count],
			RHSSeed: rng.Uint64(),
		}
	}
	return out
}

// jobRHS returns the churnSolves right-hand sides of one job.
func jobRHS(job churnJob, n int) [][]float64 {
	return randomRHS(job.RHSSeed, churnSolves, n)
}
