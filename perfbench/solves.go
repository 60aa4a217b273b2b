package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"vrcg/cluster"
	"vrcg/internal/engine"
	"vrcg/solve"
	"vrcg/sparse"
)

// The two workloads that solve the periodic family on Poisson3D m=40:
// solve-large through the library (solve.Session on a sparse.Pool) and
// cluster-2w through a two-worker fleet (cluster.Coordinator over the
// cluster/wire TCP protocol).

const (
	largeGrid    = 40   // Poisson3D m=40: n=64000, nnz=438400
	largeTol     = 1e-8 // relative residual tolerance of every solve
	largeMaxIter = 600
	// residualSlack is how far the true residual ‖b − A·x‖ may exceed
	// tol·‖b‖ before the benchmark calls x wrong. The solvers stop on a
	// recursively updated residual, which drifts from the true one by a
	// few units of rounding per iteration; a factor of 10 absorbs that
	// and still rejects any x that does not solve the system.
	residualSlack = 10
	clusterWarmup = 20 // iteration cap of each cluster-2w warm-up solve
)

var (
	largeMethods   = []string{"cg", "pipecg", "sstep", "vrcg", "parcg"}
	clusterMethods = []string{"cg", "gropp", "pipecg"}
)

// relResidual computes ‖b − A·x‖ / ‖b‖ into scratch r.
func relResidual(a *sparse.CSR, x, b, r []float64) float64 {
	a.MulVec(r, x)
	var rr, bb float64
	for i := range r {
		d := b[i] - r[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

// judge turns a solve's reported state and the benchmark's residual
// check into an outcome.
func judge(iters int, converged bool, err error, a *sparse.CSR, x, b, r []float64) outcome {
	o := outcome{Iters: iters, Err: err}
	switch {
	case err != nil || !converged:
		o.Failed = true
		if o.Err == nil {
			o.Err = errors.New("solve reported no error but did not converge")
		}
	case len(x) != len(b):
		o.Failed, o.Wrong = true, true
		o.Err = fmt.Errorf("solution has length %d, want %d", len(x), len(b))
	default:
		if rel := relResidual(a, x, b, r); !(rel <= largeTol*residualSlack) {
			o.Failed, o.Wrong = true, true
			o.Err = fmt.Errorf("true residual %.3g exceeds %g·tol", rel, float64(residualSlack))
		}
	}
	return o
}

// methodStats accumulates what the engine layer reported per method.
type methodStats struct {
	Attempted, Failed int
	Iters, Syncs      int64
	Phases            engine.PhaseSet
}

// largeRig is solve-large: one warm solve.Session per method on a
// 2-worker pool, one caller.
type largeRig struct {
	a      *sparse.CSR
	pool   *sparse.Pool
	sess   map[string]*solve.Session
	seq    []solveOp
	names  map[string]string // method → span name
	b, r   []float64
	byMeth map[string]*methodStats
}

func newLargeRig(seq []solveOp) (*largeRig, error) {
	a := sparse.Poisson3D(largeGrid)
	n := a.Dim()
	l := &largeRig{
		a:      a,
		pool:   sparse.NewPool(2),
		sess:   map[string]*solve.Session{},
		seq:    seq,
		names:  map[string]string{},
		b:      make([]float64, n),
		r:      make([]float64, n),
		byMeth: map[string]*methodStats{},
	}
	for _, m := range largeMethods {
		s, err := solve.NewSession(m, a, solve.WithTol(largeTol), solve.WithMaxIter(largeMaxIter), solve.WithPool(l.pool))
		if err != nil {
			l.close()
			return nil, fmt.Errorf("solve-large: session %s: %w", m, err)
		}
		l.sess[m] = s
		l.names[m] = "engine." + m + ".Session.Solve"
		l.byMeth[m] = &methodStats{}
		// Warm-up: a whole solve, on a right-hand side outside the
		// family, sizes the workspace and starts the pool's workers. It
		// also lets the Go runtime build its per-call-site type-assertion
		// caches, which it does at random after about a thousand calls;
		// with a short warm-up those allocations fell into the timed pass
		// at random and were most of solve-large's allocs_per_op. parcg
		// may stop at MaxIter here, as it does on the family.
		periodicRHS{P: 3, S: 0}.fill(l.b)
		if _, err := s.Solve(l.b); err != nil && !errors.Is(err, solve.ErrNotConverged) {
			l.close()
			return nil, fmt.Errorf("solve-large: warm-up %s: %w", m, err)
		}
	}
	return l, nil
}

func (l *largeRig) callers() int      { return 1 }
func (l *largeRig) ops() int          { return len(l.seq) }
func (l *largeRig) kind(i int) string { return l.seq[i].Method }
func (l *largeRig) close()            { l.pool.Close() }

func (l *largeRig) do(_, i int, tr *tracer) (time.Duration, outcome) {
	op := l.seq[i]
	op.RHS.fill(l.b)
	s := l.sess[op.Method]
	t0 := time.Now()
	root := tr.root("solve-large.op")
	sp := tr.child(root, l.names[op.Method])
	res, err := s.Solve(l.b)
	tr.end(sp)
	tr.end(root)
	d := time.Since(t0)
	if res == nil {
		return d, outcome{Failed: true, Err: err}
	}
	o := judge(res.Iterations, res.Converged, err, l.a, res.X, l.b, l.r)
	st := l.byMeth[op.Method]
	st.Attempted++
	if o.Failed {
		st.Failed++
	}
	st.Iters += int64(res.Iterations)
	st.Syncs += int64(res.Syncs)
	if res.Phases != nil {
		st.Phases.Merge(res.Phases)
	}
	return d, o
}

// clusterRig is cluster-2w: a coordinator and two in-process workers
// talking cluster/wire over loopback TCP, with the operator placed once.
type clusterRig struct {
	a       *sparse.CSR
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	seq     []solveOp
	b, r    []float64
	placeNS int64 // how long Place took
	// Per-worker phase time summed over solves, and the iterations it
	// covers.
	phaseUS    map[string]float64
	iterations int64
}

const clusterOperator = "poisson3d"

func newClusterRig(seq []solveOp) (*clusterRig, error) {
	a := sparse.Poisson3D(largeGrid)
	n := a.Dim()
	c := &clusterRig{
		a: a,
		coord: cluster.NewCoordinator(cluster.CoordinatorConfig{
			HeartbeatInterval: time.Second,
			PlaceTimeout:      60 * time.Second,
		}),
		seq:     seq,
		b:       make([]float64, n),
		r:       make([]float64, n),
		phaseUS: map[string]float64{},
	}
	for k := 0; k < 2; k++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{Addr: "127.0.0.1:0", HaloTimeout: 60 * time.Second})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("cluster-2w: worker: %w", err)
		}
		c.workers = append(c.workers, w)
		if _, err := c.coord.AddWorker(w.Addr()); err != nil {
			c.close()
			return nil, fmt.Errorf("cluster-2w: add worker: %w", err)
		}
	}
	t0 := time.Now()
	if err := c.coord.Place(clusterOperator, a); err != nil {
		c.close()
		return nil, fmt.Errorf("cluster-2w: place: %w", err)
	}
	c.placeNS = int64(time.Since(t0))
	periodicRHS{P: 3, S: 0}.fill(c.b)
	for _, m := range clusterMethods {
		res, err := c.coord.Solve(context.Background(), clusterOperator, m, c.b, cluster.SolveOpts{Tol: largeTol, MaxIter: clusterWarmup})
		if err != nil && res == nil {
			c.close()
			return nil, fmt.Errorf("cluster-2w: warm-up %s: %w", m, err)
		}
	}
	return c, nil
}

func (c *clusterRig) callers() int      { return 1 }
func (c *clusterRig) ops() int          { return len(c.seq) }
func (c *clusterRig) kind(i int) string { return c.seq[i].Method }

func (c *clusterRig) close() {
	c.coord.Close()
	for _, w := range c.workers {
		w.Close()
	}
}

func (c *clusterRig) do(_, i int, tr *tracer) (time.Duration, outcome) {
	op := c.seq[i]
	op.RHS.fill(c.b)
	t0 := time.Now()
	root := tr.root("cluster-2w.op")
	sp := tr.child(root, "cluster.Coordinator.Solve")
	res, err := c.coord.Solve(context.Background(), clusterOperator, op.Method, c.b, cluster.SolveOpts{Tol: largeTol, MaxIter: largeMaxIter})
	tr.end(sp)
	tr.end(root)
	d := time.Since(t0)
	if res == nil {
		return d, outcome{Failed: true, Err: err}
	}
	o := judge(res.Iterations, res.Converged, err, c.a, res.X, c.b, c.r)
	if res.Workers > 0 {
		for name, ph := range res.Phases {
			// Phase time summed over the fleet, per worker: divided by
			// the iterations later, one iteration's cost on one worker.
			c.phaseUS[name] += ph.MeanUS * float64(ph.Count) / float64(res.Workers)
		}
	}
	c.iterations += int64(res.Iterations)
	return d, o
}
