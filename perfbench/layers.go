package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/server"
	"vrcg/solve"
	"vrcg/sparse"
)

// Per-layer metrics of the traced run. Each comes from spans the
// benchmark records around its own calls into one layer's exported
// functions (or, for the phase splits, from what the layer itself
// reports on its Result). Every traced run reports every layer:
//
//   - engine and cluster figures come from a traced pass over the
//     solve-large and cluster-2w sequences — the run's own traced pass
//     when it is that workload, an extra one otherwise;
//   - the sparse, vec, solve, precond and server figures come from short
//     fixed probes on the operators of the workloads they serve.
//
// Probe repetition counts are fixed, so every traced run does the same
// probe work.
const (
	probeSpMV   = 200
	probeVec    = 2000
	probeDecode = 40
	probeServe  = 4000 // interleaved warm solve / acquire / ServeHTTP / TCP rounds
	probeBuild  = 16   // IC0 builds, pool builds, uploads and cold solves
)

// resetLayerCounters clears what a rig accumulated during the untimed
// pass, so the traced pass's figures stand alone.
func resetLayerCounters(r rig) {
	switch r := r.(type) {
	case *largeRig:
		for m := range r.byMeth {
			r.byMeth[m] = &methodStats{}
		}
	case *clusterRig:
		r.phaseUS = map[string]float64{}
		r.iterations = 0
	}
}

// layerMetrics adds every per-layer metric to out. tr holds the spans of
// the run's own traced pass; probe spans go to the returned tracer.
// sources says where each layer group's figures came from.
func layerMetrics(r rig, seed uint64, tr *tracer, out map[string]metric) (*tracer, []string, error) {
	pt := newTracer()
	var sources []string

	lr, ok := r.(*largeRig)
	et := tr
	if !ok {
		var err error
		if lr, err = newLargeRig(solveSequence(seed, 1, largeMethods)); err != nil {
			return nil, nil, err
		}
		defer lr.close()
		if _, err := measure(lr, pt); err != nil {
			return nil, nil, err
		}
		et = pt
		sources = append(sources, "engine: extra traced solve-large pass")
	} else {
		sources = append(sources, "engine: this run's traced pass")
	}
	engineMetrics(lr, et.stats(), out)

	cr, ok := r.(*clusterRig)
	ct := tr
	if !ok {
		var err error
		if cr, err = newClusterRig(solveSequence(seed, 1, clusterMethods)); err != nil {
			return nil, nil, err
		}
		defer cr.close()
		if _, err := measure(cr, pt); err != nil {
			return nil, nil, err
		}
		ct = pt
		sources = append(sources, "cluster: extra traced cluster-2w pass")
	} else {
		sources = append(sources, "cluster: this run's traced pass")
	}
	clusterMetrics(cr, ct.stats(), out)

	churn, err := churnOperators(seed, probeBuild, churnGrid)
	if err != nil {
		return nil, nil, err
	}
	if err := probeSparseVec(pt, seed, churn[0], out); err != nil {
		return nil, nil, err
	}
	if err := probeServing(pt, seed, churn, out); err != nil {
		return nil, nil, err
	}
	sources = append(sources, "sparse, vec, solve, precond, server: fixed probes")
	out["trace.span_ns"] = metric{spanCostNS(), "ns"}
	return pt, sources, nil
}

// spanCostNS times opening and closing one child span on a scratch
// tracer: the direct cost the traced pass adds per span.
func spanCostNS() float64 {
	const n = 20000
	t := newTracer()
	root := t.root("probe.span_cost")
	t0 := time.Now()
	for k := 0; k < n; k++ {
		t.end(t.child(root, "probe.span"))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// engineMetrics reports, per method, mean solve time and iterations,
// time per iteration, blocking synchronizations per iteration and the
// share of solves that failed, plus parcg's own phase split.
func engineMetrics(lr *largeRig, st map[string]spanStat, out map[string]metric) {
	for _, m := range largeMethods {
		ms := lr.byMeth[m]
		sp := st[lr.names[m]]
		p := "engine." + m + "."
		out[p+"solve_ms"] = metric{sp.meanUS() / 1e3, "ms"}
		out[p+"iters"] = metric{float64(ms.Iters) / float64(ms.Attempted), "count"}
		out[p+"iter_us"] = metric{float64(sp.TotNS) / 1e3 / float64(ms.Iters), "us"}
		out[p+"syncs_per_iter"] = metric{float64(ms.Syncs) / float64(ms.Iters), "count"}
		out[p+"fail_ratio"] = metric{float64(ms.Failed) / float64(ms.Attempted), "ratio"}
	}
	ph := &lr.byMeth["parcg"].Phases
	out["engine.parcg.spmv_us"] = metric{ph[engine.PhaseSpMV].MeanUS(), "us"}
	out["engine.parcg.reduction_wait_us"] = metric{ph[engine.PhaseReduction].MeanUS(), "us"}
	out["engine.parcg.update_us"] = metric{ph[engine.PhaseUpdate].MeanUS(), "us"}
}

// clusterMetrics reports placement time and the fleet's per-iteration
// phase split; coord_us is the wall time per iteration the workers'
// own iteration time does not cover (coordinator combine, framing,
// scheduling).
func clusterMetrics(cr *clusterRig, st map[string]spanStat, out map[string]metric) {
	it := float64(cr.iterations)
	out["cluster.place_ms"] = metric{float64(cr.placeNS) / 1e6, "ms"}
	out["cluster.spmv_us"] = metric{cr.phaseUS["spmv"] / it, "us"}
	out["cluster.halo_us"] = metric{cr.phaseUS["halo"] / it, "us"}
	out["cluster.reduction_us"] = metric{cr.phaseUS["reduction"] / it, "us"}
	iterUS := cr.phaseUS["iteration"] / it
	out["cluster.iter_us"] = metric{iterUS, "us"}
	wallUS := float64(st["cluster.Coordinator.Solve"].TotNS) / 1e3 / it
	out["cluster.coord_us"] = metric{wallUS - iterUS, "us"}
}

// probeSparseVec times the pooled SpMV, dot and axpy on the solve-large
// operator, and the wire decode of one serve-churn upload.
func probeSparseVec(pt *tracer, seed uint64, churn churnOperator, out map[string]metric) error {
	a := sparse.Poisson3D(largeGrid)
	n, nnz := a.Dim(), a.NNZ()
	pool := sparse.NewPool(2)
	defer pool.Close()
	x := randomRHS(seed, 1, n)[0]
	y := make([]float64, n)
	for k := 0; k < probeSpMV/10; k++ { // warm-up
		a.MulVecPool(pool, y, x)
	}
	root := pt.root("probe.sparse")
	for k := 0; k < probeSpMV; k++ {
		sp := pt.child(root, "sparse.CSR.MulVecPool")
		a.MulVecPool(pool, y, x)
		pt.end(sp)
	}
	pt.end(root)

	root = pt.root("probe.vec")
	var sink float64
	for k := 0; k < probeVec; k++ {
		sp := pt.child(root, "vec.PoolDot")
		sink += vec.PoolDot(pool, x, y)
		pt.end(sp)
	}
	for k := 0; k < probeVec; k++ {
		sp := pt.child(root, "vec.PoolAxpy")
		vec.PoolAxpy(pool, 1e-9, x, y)
		pt.end(sp)
	}
	pt.end(root)
	if sink != sink {
		return fmt.Errorf("vec probe: non-finite dot")
	}

	var wm sparse.WireMatrix
	if err := json.Unmarshal(churn.JSON, &wm); err != nil {
		return fmt.Errorf("decode probe: %w", err)
	}
	root = pt.root("probe.decode")
	for k := 0; k < probeDecode; k++ {
		sp := pt.child(root, "sparse.WireMatrix.DecodeLimited")
		_, err := wm.DecodeLimited(1 << 22)
		pt.end(sp)
		if err != nil {
			return fmt.Errorf("decode probe: %w", err)
		}
	}
	pt.end(root)

	st := pt.stats()
	spmv := st["sparse.CSR.MulVecPool"].meanUS()
	// Bytes one CSR product must move at least: values and column
	// indices once each, the row pointers, x once, and y once.
	spmvBytes := float64(nnz*(8+8) + (n+1)*8 + 2*n*8)
	dot := st["vec.PoolDot"].meanUS()
	out["sparse.spmv_us"] = metric{spmv, "us"}
	out["sparse.spmv_gbps"] = metric{spmvBytes / spmv / 1e3, "GB/s-computed"}
	out["sparse.decode_ms"] = metric{st["sparse.WireMatrix.DecodeLimited"].meanUS() / 1e3, "ms"}
	out["vec.dot_us"] = metric{dot, "us"}
	out["vec.dot_gbps"] = metric{float64(2*n*8) / dot / 1e3, "GB/s-computed"}
	out["vec.update_us"] = metric{st["vec.PoolAxpy"].meanUS(), "us"}
	return nil
}

// probeServing times the solve, precond and server layers. The warm
// figures use the serve-warm operator; each iteration runs a warm
// Session.Solve, a SessionPool Acquire+Release, ServeHTTP on an
// in-memory writer and the same request over loopback TCP, back to
// back, so the differences between them (server self time, transport)
// are taken under the same host conditions. The cold figures use
// serve-churn operators: per operator, an IC0 build, a new pcg+ic0
// SessionPool with its first solve, an upload, and a cold served solve.
func probeServing(pt *tracer, seed uint64, churn []churnOperator, out map[string]metric) error {
	a := sparse.Poisson2D(warmGrid)
	b := randomRHS(seed, 1, a.Dim())[0]
	s, err := solve.NewSession("cg", a, warmParams.Options()...)
	if err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}
	pool, err := solve.NewSessionPool("cg", a, warmParams.Options()...)
	if err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}
	ls, err := startServer(server.Config{})
	if err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}
	defer ls.close()
	var st callerState
	doc, err := json.Marshal(sparse.EncodeCSR(a))
	if err != nil {
		return err
	}
	if err := ls.upload(uploadBody(warmOperator, doc), &st.buf); err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}
	params, err := json.Marshal(warmParams)
	if err != nil {
		return err
	}
	body := binSolveBody(warmOperator, "cg", "", string(params), b)
	ctx := context.Background()

	warm := probeServe / 10
	root := pt.root("probe.serving")
	for k := 0; k < warm+probeServe; k++ {
		on := k >= warm // the first tenth warms every path up
		sp := spanRef{}
		if on {
			sp = pt.child(root, "solve.Session.Solve")
		}
		_, err := s.Solve(b)
		if on {
			pt.end(sp)
		}
		if err != nil {
			return fmt.Errorf("serving probe: %w", err)
		}

		if on {
			sp = pt.child(root, "solve.SessionPool.Acquire+Release")
		}
		ps, err := pool.Acquire(ctx)
		if err == nil {
			ps.Release()
		}
		if on {
			pt.end(sp)
		}
		if err != nil {
			return fmt.Errorf("serving probe: %w", err)
		}

		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		req.Header.Set("Content-Type", server.BinaryContentType)
		rec := httptest.NewRecorder()
		if on {
			sp = pt.child(root, "server.Server.ServeHTTP")
		}
		ls.srv.ServeHTTP(rec, req)
		if on {
			pt.end(sp)
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("serving probe: ServeHTTP status %d", rec.Code)
		}

		if on {
			sp = pt.child(root, "server.POST /v1/solve over TCP")
		}
		err = ls.solveBin(body, &st.buf, &st.reply)
		if on {
			pt.end(sp)
		}
		if err != nil {
			return fmt.Errorf("serving probe: %w", err)
		}
	}
	pt.end(root)

	cparams, err := json.Marshal(solve.Params{Tol: serveTol})
	if err != nil {
		return err
	}
	for k, op := range churn {
		rhs := randomRHS(seed+uint64(k), 1, op.A.Dim())[0]
		root := pt.root("probe.cold")
		sp := pt.child(root, "precond.NewIC0")
		ic0, err := precond.NewIC0(op.A)
		pt.end(sp)
		if err != nil {
			return fmt.Errorf("ic0 probe: %w", err)
		}
		sp = pt.child(root, "solve.NewSessionPool+first Solve")
		pool, err := solve.NewSessionPool("pcg", op.A, solve.WithTol(serveTol), solve.WithPreconditioner(ic0))
		if err == nil {
			var ps *solve.PooledSession
			if ps, err = pool.Acquire(ctx); err == nil {
				_, err = ps.Solve(rhs)
				ps.Release()
			}
		}
		pt.end(sp)
		if err != nil {
			return fmt.Errorf("pool build probe: %w", err)
		}

		name := fmt.Sprintf("probe-%d", k)
		sp = pt.child(root, "server.POST /v1/operators")
		err = ls.upload(uploadBody(name, op.JSON), &st.buf)
		pt.end(sp)
		if err == nil {
			sp = pt.child(root, "server.POST /v1/solve cold")
			err = ls.solveBin(binSolveBody(name, "pcg", "ic0", string(cparams), rhs), &st.buf, &st.reply)
			pt.end(sp)
		}
		pt.end(root)
		if err != nil {
			return fmt.Errorf("server probe: %w", err)
		}
	}

	sst := pt.stats()
	sessionUS := sst["solve.Session.Solve"].meanUS()
	acquireUS := sst["solve.SessionPool.Acquire+Release"].meanUS()
	serveUS := sst["server.Server.ServeHTTP"].meanUS()
	out["solve.session_solve_us"] = metric{sessionUS, "us"}
	out["solve.acquire_us"] = metric{acquireUS, "us"}
	out["solve.pool_build_ms"] = metric{(sst["precond.NewIC0"].meanUS() + sst["solve.NewSessionPool+first Solve"].meanUS()) / 1e3, "ms"}
	out["precond.ic0_build_ms"] = metric{sst["precond.NewIC0"].meanUS() / 1e3, "ms"}
	out["server.solve_us"] = metric{serveUS, "us"}
	out["server.self_us"] = metric{serveUS - sessionUS - acquireUS, "us"}
	out["server.transport_us"] = metric{sst["server.POST /v1/solve over TCP"].meanUS() - serveUS, "us"}
	out["server.upload_ms"] = metric{sst["server.POST /v1/operators"].meanUS() / 1e3, "ms"}
	out["server.cold_solve_ms"] = metric{sst["server.POST /v1/solve cold"].meanUS() / 1e3, "ms"}
	return nil
}
