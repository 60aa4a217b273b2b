package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// tail percentile: fewer, and one slow operation moves the figure.
const minBeyond = 10

// tailPermille is the tail percentile every workload reports (p90). On
// a few hundred samples p99 has only a handful of samples beyond it and
// did not repeat between runs; p90 does.
const tailPermille = 900

// samplesBeyond returns how many of n sorted samples lie strictly above
// rank ⌈n·permille/1000⌉, in integer arithmetic so 100 samples at p90
// leave exactly 10.
func samplesBeyond(n, permille int) int {
	return n - (n*permille+999)/1000
}

// checkTail refuses a tail percentile with fewer than minBeyond samples
// beyond it.
func checkTail(n, permille int) error {
	if b := samplesBeyond(n, permille); b < minBeyond {
		return fmt.Errorf("p%g over %d samples leaves %d beyond it; at least %d are needed",
			float64(permille)/10, n, b, minBeyond)
	}
	return nil
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	switch len(sorted) {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timing summarizes one set of latency samples.
type timing struct {
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_percentile"`
	N       int     `json:"samples"`
	Blocks  int     `json:"blocks,omitempty"`
}

// summarize returns the median and the tail percentile of samples,
// failing when the tail has too few samples beyond it.
func summarize(samples []float64, permille int) (timing, error) {
	if err := checkTail(len(samples), permille); err != nil {
		return timing{}, err
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return timing{
		P50:     quantile(s, 0.5),
		Tail:    quantile(s, float64(permille)/1000),
		TailPct: float64(permille) / 10,
		N:       len(s),
	}, nil
}

// tally counts operations attempted and failed, per operation kind and
// overall. An operation fails when it errors, does not converge, or
// returns a wrong solution; wrong solutions are also counted on their
// own, since they make the run incorrect rather than merely failed.
type tally struct {
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Wrong     int            `json:"wrong"`
	ByKind    map[string]int `json:"failed_by_kind,omitempty"`
	KindOps   map[string]int `json:"attempted_by_kind,omitempty"`
	FirstErr  string         `json:"first_error,omitempty"`
}

// merge adds o's counts to t.
func (t *tally) merge(o tally) {
	if t.ByKind == nil {
		t.ByKind = map[string]int{}
		t.KindOps = map[string]int{}
	}
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Wrong += o.Wrong
	for kind, n := range o.KindOps {
		t.KindOps[kind] += n
	}
	for kind, n := range o.ByKind {
		t.ByKind[kind] += n
	}
	if t.FirstErr == "" {
		t.FirstErr = o.FirstErr
	}
}

// add records one operation outcome.
func (t *tally) add(kind string, failed, wrong bool, err error) {
	if t.ByKind == nil {
		t.ByKind = map[string]int{}
		t.KindOps = map[string]int{}
	}
	t.Attempted++
	t.KindOps[kind]++
	if failed {
		t.Failed++
		t.ByKind[kind]++
	}
	if wrong {
		t.Wrong++
	}
	if err != nil && t.FirstErr == "" {
		t.FirstErr = err.Error()
	}
}

// maxBlocks bounds how many blocks a timed pass is split into.
const maxBlocks = 10

// blockCount returns how many blocks of consecutive completions a pass
// of n operations is split into: as many as leave every block enough
// samples for the tail percentile, at most maxBlocks.
func blockCount(n int) int {
	return max(1, min(maxBlocks, n/minOps))
}

// figures are the timing figures of one pass.
type figures struct {
	Latency    timing
	RatePerS   float64
	CPUMSPerOp float64
	// BlockP50 is each block's median latency in completion order: a
	// contention episode shows as a run of slow blocks.
	BlockP50 []float64
}

// summarizePass splits the pass into blocks of consecutive completions
// and reports, for latency percentiles, operation rate and CPU time per
// operation, the median over blocks. A host-contention episode of a few
// seconds then moves at most the blocks it overlaps, not the figure. A
// pass too short for two blocks is one block, summarized whole.
func summarizePass(m measurement, permille int) (figures, error) {
	n := len(m.LatMS)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return m.EndNS[order[a]] < m.EndNS[order[b]] })
	nb := blockCount(n)
	var p50s, tails, rates, cpus []float64
	var prevEnd int64
	for k := 0; k < nb; k++ {
		blk := order[k*n/nb : (k+1)*n/nb]
		lat := make([]float64, len(blk))
		for j, i := range blk {
			lat[j] = m.LatMS[i]
		}
		t, err := summarize(lat, permille)
		if err != nil {
			return figures{}, err
		}
		end := m.EndNS[blk[len(blk)-1]]
		span := float64(end - prevEnd)
		cpu := cpuAt(m.CPU, end) - cpuAt(m.CPU, prevEnd)
		prevEnd = end
		p50s = append(p50s, t.P50)
		tails = append(tails, t.Tail)
		rates = append(rates, float64(len(blk))/(span/1e9))
		cpus = append(cpus, cpu/1e6/float64(len(blk)))
	}
	return figures{
		Latency: timing{
			P50:     median(p50s),
			Tail:    median(tails),
			TailPct: float64(permille) / 10,
			N:       n,
			Blocks:  nb,
		},
		RatePerS:   median(rates),
		CPUMSPerOp: median(cpus),
		BlockP50:   p50s,
	}, nil
}
