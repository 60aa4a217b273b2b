package main

import (
	"errors"
	"math"
	"testing"
)

func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, permille, want int }{
		{100, 900, 10},
		{99, 900, 9},
		{115, 900, 11},
		{1000, 990, 10},
		{999, 990, 9},
		{10, 500, 5},
	} {
		if got := samplesBeyond(c.n, c.permille); got != c.want {
			t.Errorf("samplesBeyond(%d, %d) = %d, want %d", c.n, c.permille, got, c.want)
		}
		if err := checkTail(c.n, c.permille); (err == nil) != (c.want >= minBeyond) {
			t.Errorf("checkTail(%d, %d) = %v with %d beyond", c.n, c.permille, err, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample quantile = %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile is not NaN")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSummarizeReportsCountAndRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	got, err := summarize(xs, 900)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 100 || got.TailPct != 90 || got.P50 != 50.5 || math.Abs(got.Tail-90.1) > 1e-9 {
		t.Errorf("summarize = %+v", got)
	}
	if xs[0] != 100 {
		t.Error("summarize reordered its input")
	}
	if _, err := summarize(xs[:99], 900); err == nil {
		t.Error("p90 over 99 samples accepted")
	}
}

// A slow episode that covers a minority of blocks must not move the
// block-median figures.
func TestSummarizePassResistsEpisode(t *testing.T) {
	const n = 1000
	m := measurement{LatMS: make([]float64, n), EndNS: make([]int64, n)}
	var at int64
	for i := 0; i < n; i++ {
		lat := 1.0 + float64(i%10)/100 // 1.00 .. 1.09 ms
		if i >= 300 && i < 500 {
			lat *= 3 // two blocks inside an episode
		}
		at += int64(lat * 1e6)
		m.LatMS[i], m.EndNS[i] = lat, at
	}
	// CPU time runs at half the wall clock.
	for t := int64(0); t <= at+int64(cpuSampleEvery); t += int64(cpuSampleEvery) {
		m.CPU = append(m.CPU, cpuSample{AtNS: t, CPUNS: t / 2})
	}
	f, err := summarizePass(m, 900)
	if err != nil {
		t.Fatal(err)
	}
	if f.Latency.Blocks != 10 || f.Latency.N != n || len(f.BlockP50) != 10 {
		t.Fatalf("blocks = %d, samples = %d", f.Latency.Blocks, f.Latency.N)
	}
	if math.Abs(f.Latency.P50-1.045) > 1e-9 {
		t.Errorf("p50 = %v, want the episode-free 1.045", f.Latency.P50)
	}
	if math.Abs(f.Latency.Tail-1.081) > 1e-9 {
		t.Errorf("tail = %v, want the episode-free p90 1.081", f.Latency.Tail)
	}
	if want := 1000 / 1.045; math.Abs(f.RatePerS-want)/want > 1e-6 {
		t.Errorf("rate = %v, want %v", f.RatePerS, want)
	}
	if want := 1.045 / 2; math.Abs(f.CPUMSPerOp-want)/want > 1e-3 {
		t.Errorf("cpu per op = %v ms, want %v", f.CPUMSPerOp, want)
	}
}

func TestSummarizePassShortRunIsOneBlock(t *testing.T) {
	const n = 115
	m := measurement{LatMS: make([]float64, n), EndNS: make([]int64, n)}
	for i := range m.LatMS {
		m.LatMS[i], m.EndNS[i] = 2, int64(i+1)*2e6
	}
	m.CPU = []cpuSample{{0, 0}, {int64(n) * 2e6, int64(n) * 2e6}}
	f, err := summarizePass(m, 900)
	if err != nil {
		t.Fatal(err)
	}
	if f.Latency.Blocks != 1 || f.RatePerS != 500 || f.CPUMSPerOp != 2 {
		t.Errorf("figures = %+v", f)
	}
}

func TestTally(t *testing.T) {
	var tl tally
	tl.add("cg", false, false, nil)
	tl.add("parcg", true, false, errors.New("did not converge"))
	tl.add("parcg", true, true, errors.New("wrong x"))
	if tl.Attempted != 3 || tl.Failed != 2 || tl.Wrong != 1 {
		t.Errorf("tally = %+v", tl)
	}
	if tl.ByKind["parcg"] != 2 || tl.KindOps["cg"] != 1 || tl.FirstErr != "did not converge" {
		t.Errorf("tally = %+v", tl)
	}
	var all tally
	all.merge(tl)
	all.merge(tl)
	if all.Attempted != 6 || all.Failed != 4 || all.Wrong != 2 || all.ByKind["parcg"] != 4 || all.KindOps["cg"] != 2 {
		t.Errorf("merged tally = %+v", all)
	}
}

func TestSpanStats(t *testing.T) {
	tr := newTracer()
	root := tr.root("root")
	tr.end(tr.child(root, "child"))
	tr.end(tr.child(root, "child"))
	tr.end(root)
	st := tr.stats()
	if st["root"].Count != 1 || st["child"].Count != 2 {
		t.Errorf("stats = %+v", st)
	}
	for _, s := range tr.spans {
		if s.Op != root.id || (s.Name == "child") != (s.Parent == root.id) || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	var off *tracer
	off.end(off.child(off.root("x"), "y")) // a nil tracer records nothing
}
