// Command perfbench is the repository's end-to-end benchmark. One run
// sets a workload up (several times, reporting the median set-up time),
// runs its fixed, seed-determined operation sequence once with every
// output checked, and prints every metric by name and unit. With
// --trace 1 it instead reports the per-layer metrics of a traced run.
//
//	go build -o perfbench . && ./perfbench --workload solve-large --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is a
// report with the run context, sample counts and per-kind failures.
// README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// ops returns the length of the operation sequence for a run of the
	// given nominal seconds. It depends on nothing else, so equal
	// settings always mean identical work.
	ops func(seconds int) int
	// prepare generates a run's inputs from the seed, untimed, and
	// returns the set-up that setup_s times.
	prepare func(seed uint64, ops int) (setup func() (rig, error), err error)
}

// roundUp returns the smallest multiple of unit that is at least
// max(x, floor).
func roundUp(x, floor, unit int) int {
	x = max(x, floor)
	return (x + unit - 1) / unit * unit
}

var (
	largeCycle   = len(family()) * len(largeMethods)   // 115 operations
	clusterCycle = len(family()) * len(clusterMethods) // 69 operations
)

// minOps is the fewest operations a run may have: p90 needs 100 for ten
// samples beyond it.
const minOps = 100

// The nominal rates turn --seconds into an operation count. They were
// set on a 2-vCPU Xeon so that a run of --seconds lasts about that
// long there; on other hardware the work, not the time, stays fixed.
var workloads = []workloadDef{
	{
		name: "solve-large",
		ops:  func(s int) int { return roundUp(s*9/2, minOps, largeCycle) },
		prepare: func(seed uint64, ops int) (func() (rig, error), error) {
			seq := solveSequence(seed, ops/largeCycle, largeMethods)
			return func() (rig, error) { return newLargeRig(seq) }, nil
		},
	},
	{
		name: "serve-warm",
		ops:  func(s int) int { return roundUp(s*10000, minOps, serveCallers) },
		prepare: func(seed uint64, ops int) (func() (rig, error), error) {
			in, err := newWarmInputs(seed, ops)
			return func() (rig, error) { return newWarmRig(in) }, err
		},
	},
	{
		name: "serve-churn",
		// Whole rounds over the operators, which is also a whole number
		// of jobs per caller.
		ops: func(s int) int { return roundUp(s*200, minOps, churnOpCount) },
		prepare: func(seed uint64, ops int) (func() (rig, error), error) {
			in, err := newChurnInputs(seed, ops)
			return func() (rig, error) { return newChurnRig(in) }, err
		},
	},
	{
		name: "cluster-2w",
		ops:  func(s int) int { return roundUp(s*9, minOps, clusterCycle) },
		prepare: func(seed uint64, ops int) (func() (rig, error), error) {
			seq := solveSequence(seed, ops/clusterCycle, clusterMethods)
			return func() (rig, error) { return newClusterRig(seq) }, nil
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: everything a reader needs to
// judge the figures, but no figure the result line lacks a name for.
type report struct {
	Workload   string     `json:"workload"`
	Trace      bool       `json:"trace"`
	Context    runContext `json:"context"`
	SetupS     []float64  `json:"setup_s_samples"`
	Latency    timing     `json:"latency_ms"`
	BlockP50   []float64  `json:"block_p50_ms,omitempty"`
	Tally      tally      `json:"tally"`
	WallS      float64    `json:"timed_wall_s"`
	Traced     *timing    `json:"traced_latency_ms,omitempty"`
	TracedWall float64    `json:"traced_wall_s,omitempty"`
	SpansFiles []string   `json:"spans_files,omitempty"`
	Layers     []string   `json:"layer_sources,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "nominal run length; fixes the operation count")
	traceOn := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	spansDir := fs.String("spans-dir", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1, --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	res, rep, err := runWorkload(def, *seed, *seconds, *traceOn == 1, *spansDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]report{"report": rep}); err != nil {
		return 1
	}
	if err := out.Encode(res); err != nil {
		return 1
	}
	return 0
}

// runWorkload sets def up, runs it, and gathers the metrics the trace
// flag selects.
func runWorkload(def workloadDef, seed uint64, seconds int, traced bool, spansDir string) (result, report, error) {
	ops := def.ops(seconds)
	rep := report{Workload: def.name, Trace: traced, Context: newRunContext(seed)}
	rep.Context.Ops = ops
	var err error
	if rep.Context.MemGBpsBefore, err = memProbe(); err != nil {
		return result{}, rep, err
	}
	setup, err := def.prepare(seed, ops)
	if err != nil {
		return result{}, rep, err
	}
	r, setupS, err := setupMedian(setup)
	if err != nil {
		return result{}, rep, err
	}
	defer r.close()
	rep.SetupS = setupS
	rep.Context.Callers = r.callers()
	m, err := measure(r, nil)
	if err != nil {
		return result{}, rep, err
	}
	if rep.Context.MemGBpsAfter, err = memProbe(); err != nil {
		return result{}, rep, err
	}
	fig, err := summarizePass(m, tailPermille)
	if err != nil {
		return result{}, rep, err
	}
	rep.Latency, rep.BlockP50 = fig.Latency, fig.BlockP50
	rep.Tally = m.Tally
	rep.WallS = m.Wall.Seconds()
	res := result{Correct: m.Tally.Wrong == 0, Attempted: m.Tally.Attempted, Failed: m.Tally.Failed}
	if !traced {
		n := float64(m.Tally.Attempted)
		res.Metrics = map[string]metric{
			"setup_s":       {median(setupS), "s"},
			"p50_ms":        {rep.Latency.P50, "ms"},
			"tail_ms":       {rep.Latency.Tail, "ms"},
			"rate_per_s":    {fig.RatePerS, "1/s"},
			"cpu_ms_per_op": {fig.CPUMSPerOp, "ms"},
			"rss_peak_mb":   {m.PeakMB, "MiB"},
			"iters_per_op":  {float64(m.Iters) / n, "count"},
			"allocs_per_op": {float64(m.Mallocs) / n, "count"},
		}
		return res, rep, nil
	}

	// The traced run: the same sequence again with spans on, then the
	// layer probes. Its end-to-end figures only serve the overhead.
	tr := newTracer()
	resetLayerCounters(r)
	mt, err := measure(r, tr)
	if err != nil {
		return result{}, rep, err
	}
	tfig, err := summarizePass(mt, tailPermille)
	if err != nil {
		return result{}, rep, err
	}
	tt := tfig.Latency
	rep.Traced, rep.TracedWall = &tt, mt.Wall.Seconds()
	res.Correct = res.Correct && mt.Tally.Wrong == 0
	metrics := map[string]metric{
		"trace.untraced_p50_ms": {rep.Latency.P50, "ms"},
		"trace.traced_p50_ms":   {tt.P50, "ms"},
		"trace.overhead_pct":    {100 * (tt.P50 - rep.Latency.P50) / rep.Latency.P50, "%"},
	}
	pt, sources, err := layerMetrics(r, seed, tr, metrics)
	if err != nil {
		return result{}, rep, err
	}
	rep.Layers = sources
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return result{}, rep, fmt.Errorf("spans: %w", err)
	}
	for k, t := range []*tracer{tr, pt} {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-%s-seed%d.jsonl", []string{"spans", "probes"}[k], def.name, seed))
		if err := t.write(path, spanWriteLimit); err != nil {
			return result{}, rep, err
		}
		rep.SpansFiles = append(rep.SpansFiles, path)
	}
	res.Metrics = metrics
	return res, rep, nil
}

// spanWriteLimit caps the spans written per run; the aggregates use all
// of them.
const spanWriteLimit = 50000
