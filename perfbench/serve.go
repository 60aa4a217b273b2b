package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"vrcg/cluster/wire"
	"vrcg/server"
	"vrcg/solve"
	"vrcg/sparse"
)

// The two serving workloads: an in-process server.Server listening on
// 127.0.0.1, driven by closed-loop callers over keep-alive connections.

const (
	serveCallers = 2
	warmGrid     = 16   // serve-warm operator: Poisson2D m=16, n=256
	warmRHSCount = 64   // distinct right-hand sides, each checked bit for bit
	warmWarmup   = 400  // warm-up requests, split across the callers
	churnGrid    = 32   // serve-churn operators: VarCoeffPoisson2D m=32, n=1024
	churnOpCount = 32   // distinct generated operators per seed; even, so rounds split over the callers
	churnStore   = 4    // MaxOperators: each upload evicts the LRU operator
	churnWarmup  = 8    // warm-up jobs, split across the callers
	serveTol     = 1e-8 // relative residual tolerance of every served solve
)

// loopServer is a server.Server on an ephemeral loopback port plus an
// HTTP client limited to serveCallers keep-alive connections.
type loopServer struct {
	srv    *server.Server
	hs     *http.Server
	ln     net.Listener
	done   chan struct{}
	base   string
	client *http.Client
}

func startServer(cfg server.Config) (*loopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(cfg)
	ls := &loopServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 30 * time.Second},
		ln:   ln,
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveCallers,
			MaxConnsPerHost:     serveCallers,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ls.ln) // returns http.ErrServerClosed on close
	}()
	return ls, nil
}

func (ls *loopServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.client.CloseIdleConnections()
	_ = ls.hs.Shutdown(ctx) // a timeout leaves nothing to clean up here
	<-ls.done
	_ = ls.srv.Shutdown(ctx)
}

// post sends body and reads the whole response into buf.
func (ls *loopServer) post(path, contentType string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := ls.client.Post(ls.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, nil
}

// upload stores a JSON operator upload body.
func (ls *loopServer) upload(body []byte, buf *bytes.Buffer) error {
	status, err := ls.post("/v1/operators", "application/json", body, buf)
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if status/100 != 2 {
		return fmt.Errorf("upload: status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// binSolveBody frames one binary /v1/solve request (the layout is in
// server/binary.go).
func binSolveBody(operator, method, precond, params string, rhs []float64) []byte {
	enc := wire.NewEnc(64 + 8*len(rhs))
	enc.U8(1)
	enc.Str(operator)
	enc.Str(method)
	enc.Str(precond)
	enc.Str(params)
	enc.U32(0)
	enc.U32(1)
	enc.F64s(rhs)
	out := append([]byte(nil), enc.B...)
	enc.Release()
	return out
}

// binReply is the decoded single result of a binary solve response.
type binReply struct {
	code      string
	converged bool
	iters     int
	x         []float64
}

// decodeBinReply parses a binary /v1/solve response into r, reusing
// r.x.
func decodeBinReply(body []byte, r *binReply) error {
	d := wire.NewDec(body)
	if v := d.U8(); v != 1 {
		return fmt.Errorf("binary response version %d", v)
	}
	top := d.Str()
	if n := d.U32(); n != 1 {
		return fmt.Errorf("binary response holds %d results, want 1", n)
	}
	r.code = d.Str()
	if r.code == "" {
		r.code = top
	}
	_ = d.Str() // method
	r.converged = d.U8() == 1
	r.iters = int(d.U32())
	_ = d.F64() // residual norm
	_ = d.F64() // true residual norm
	r.x = d.F64s(r.x[:0])
	return d.Err()
}

// solveBin posts a binary solve and decodes its reply.
func (ls *loopServer) solveBin(body []byte, buf *bytes.Buffer, r *binReply) error {
	r.iters = 0 // a failed exchange reports no iterations
	status, err := ls.post("/v1/solve", server.BinaryContentType, body, buf)
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if status != http.StatusOK && status != http.StatusUnprocessableEntity {
		return fmt.Errorf("solve: status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	if err := decodeBinReply(buf.Bytes(), r); err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if r.code != "" || !r.converged {
		return fmt.Errorf("solve: not converged (code %q after %d iterations)", r.code, r.iters)
	}
	return nil
}

// callerState is the per-caller scratch of a serving rig.
type callerState struct {
	buf   bytes.Buffer
	reply binReply
	r     []float64
}

// warmInputs is everything serve-warm sends and checks against,
// generated from the seed before set-up.
type warmInputs struct {
	upload []byte      // the operator upload body
	bodies [][]byte    // binary request per distinct right-hand side
	want   [][]float64 // in-process reference solution per right-hand side
	seq    []int       // right-hand side of each operation
}

const warmOperator = "warm"

// warmParams is the solve.Params JSON both paths use.
var warmParams = solve.Params{Tol: serveTol}

func newWarmInputs(seed uint64, ops int) (*warmInputs, error) {
	a := sparse.Poisson2D(warmGrid)
	params, err := json.Marshal(warmParams)
	if err != nil {
		return nil, err
	}
	doc, err := json.Marshal(sparse.EncodeCSR(a))
	if err != nil {
		return nil, err
	}
	// The in-process reference: the same method, operator and options
	// on a plain Session. The binary transport documents that both paths
	// agree bit for bit.
	ref, err := solve.NewSession("cg", a, warmParams.Options()...)
	if err != nil {
		return nil, fmt.Errorf("serve-warm: reference session: %w", err)
	}
	in := &warmInputs{upload: uploadBody(warmOperator, doc), seq: indexSequence(seed, ops, warmRHSCount)}
	for _, b := range randomRHS(seed, warmRHSCount, a.Dim()) {
		res, err := ref.Solve(b)
		if err != nil {
			return nil, fmt.Errorf("serve-warm: reference solve: %w", err)
		}
		in.want = append(in.want, append([]float64(nil), res.X...))
		in.bodies = append(in.bodies, binSolveBody(warmOperator, "cg", "", string(params), b))
	}
	return in, nil
}

// warmRig is serve-warm: binary cg solves against one resident
// Poisson2D operator, every reply compared bit for bit with an
// in-process Session.Solve of the same right-hand side.
type warmRig struct {
	*warmInputs
	ls *loopServer
	st [serveCallers]callerState
}

func newWarmRig(in *warmInputs) (*warmRig, error) {
	ls, err := startServer(server.Config{})
	if err != nil {
		return nil, fmt.Errorf("serve-warm: %w", err)
	}
	w := &warmRig{warmInputs: in, ls: ls}
	if err := ls.upload(in.upload, &w.st[0].buf); err != nil {
		w.close()
		return nil, fmt.Errorf("serve-warm: %w", err)
	}
	if err := w.warmup(); err != nil {
		w.close()
		return nil, fmt.Errorf("serve-warm: warm-up: %w", err)
	}
	return w, nil
}

// warmup runs warmWarmup checked requests from both callers at once,
// so both connections are open and the session pool holds two warm
// sessions before timing starts.
func (w *warmRig) warmup() error {
	errs := make([]error, serveCallers)
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < warmWarmup; k += serveCallers {
				if o := w.check(c, k%warmRHSCount); o.Failed {
					errs[c] = o.Err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *warmRig) callers() int    { return serveCallers }
func (w *warmRig) ops() int        { return len(w.seq) }
func (w *warmRig) kind(int) string { return "cg" }
func (w *warmRig) close()          { w.ls.close() }

func (w *warmRig) do(c, i int, tr *tracer) (time.Duration, outcome) {
	k := w.seq[i]
	t0 := time.Now()
	root := tr.root("serve-warm.op")
	sp := tr.child(root, "server.POST /v1/solve")
	st := &w.st[c]
	err := w.ls.solveBin(w.bodies[k], &st.buf, &st.reply)
	tr.end(sp)
	tr.end(root)
	d := time.Since(t0)
	return d, w.judge(k, st, err)
}

// check runs one untimed request for right-hand side k.
func (w *warmRig) check(c, k int) outcome {
	st := &w.st[c]
	return w.judge(k, st, w.ls.solveBin(w.bodies[k], &st.buf, &st.reply))
}

// judge compares a reply with the reference solution bit for bit.
func (w *warmRig) judge(k int, st *callerState, err error) outcome {
	o := outcome{Iters: st.reply.iters}
	if err != nil {
		o.Failed, o.Err = true, err
		return o
	}
	want := w.want[k]
	if len(st.reply.x) != len(want) {
		o.Failed, o.Wrong = true, true
		o.Err = fmt.Errorf("reply x has length %d, want %d", len(st.reply.x), len(want))
		return o
	}
	for i, v := range st.reply.x {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			o.Failed, o.Wrong = true, true
			o.Err = fmt.Errorf("reply x[%d] = %v differs from the in-process solve's %v", i, v, want[i])
			return o
		}
	}
	return o
}

// churnInputs is everything serve-churn uploads and solves, generated
// from the seed before set-up.
type churnInputs struct {
	operators []churnOperator
	seq       []churnJob // the timed jobs
	warm      []churnJob // warm-up jobs, under names the timed jobs never use
	params    string
}

func newChurnInputs(seed uint64, jobs int) (*churnInputs, error) {
	ops, err := churnOperators(seed, churnOpCount, churnGrid)
	if err != nil {
		return nil, fmt.Errorf("serve-churn: %w", err)
	}
	params, err := json.Marshal(solve.Params{Tol: serveTol})
	if err != nil {
		return nil, err
	}
	warm := churnSequence(seed^0x5eed, churnWarmup, churnOpCount)
	for k := range warm {
		warm[k].Name = "warmup-" + warm[k].Name
	}
	return &churnInputs{operators: ops, seq: churnSequence(seed, jobs, churnOpCount), warm: warm, params: string(params)}, nil
}

// churnRig is serve-churn: each job uploads a fresh operator (evicting
// the least recently used one) and runs one cold and three warm pcg+ic0
// solves on it.
type churnRig struct {
	*churnInputs
	ls *loopServer
	st [serveCallers]callerState
}

func newChurnRig(in *churnInputs) (*churnRig, error) {
	ls, err := startServer(server.Config{MaxOperators: churnStore})
	if err != nil {
		return nil, fmt.Errorf("serve-churn: %w", err)
	}
	ch := &churnRig{churnInputs: in, ls: ls}
	for c := range ch.st {
		ch.st[c].r = make([]float64, churnGrid*churnGrid)
	}
	// Warm-up jobs from both callers.
	errs := make([]error, serveCallers)
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(in.warm); k += serveCallers {
				if o := ch.job(c, ch.prepare(in.warm[k]), nil, spanRef{}); o.Failed {
					errs[c] = o.Err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		ch.close()
		return nil, fmt.Errorf("serve-churn: warm-up: %w", err)
	}
	return ch, nil
}

func (ch *churnRig) callers() int    { return serveCallers }
func (ch *churnRig) ops() int        { return len(ch.seq) }
func (ch *churnRig) kind(int) string { return "job" }
func (ch *churnRig) close()          { ch.ls.close() }

func (ch *churnRig) do(c, i int, tr *tracer) (time.Duration, outcome) {
	in := ch.prepare(ch.seq[i])
	t0 := time.Now()
	root := tr.root("serve-churn.op")
	o := ch.job(c, in, tr, root)
	tr.end(root)
	return time.Since(t0), o
}

// jobInputs is one job's request bodies, built before the job is
// timed.
type jobInputs struct {
	name   string
	a      *sparse.CSR
	upload []byte
	rhs    [][]float64
	solves [][]byte
}

func (ch *churnRig) prepare(job churnJob) jobInputs {
	op := ch.operators[job.Op]
	in := jobInputs{name: job.Name, a: op.A, upload: uploadBody(job.Name, op.JSON), rhs: jobRHS(job, op.A.Dim())}
	for _, b := range in.rhs {
		in.solves = append(in.solves, binSolveBody(job.Name, "pcg", "ic0", ch.params, b))
	}
	return in
}

// job uploads the job's operator and runs its solves, checking each
// solution's true residual against the operator the benchmark kept.
func (ch *churnRig) job(c int, in jobInputs, tr *tracer, root spanRef) outcome {
	st := &ch.st[c]
	sp := tr.child(root, "server.POST /v1/operators")
	err := ch.ls.upload(in.upload, &st.buf)
	tr.end(sp)
	if err != nil {
		return outcome{Failed: true, Err: err}
	}
	var o outcome
	for k, body := range in.solves {
		name := "server.POST /v1/solve warm"
		if k == 0 {
			name = "server.POST /v1/solve cold"
		}
		sp := tr.child(root, name)
		err := ch.ls.solveBin(body, &st.buf, &st.reply)
		tr.end(sp)
		o.Iters += st.reply.iters
		if err != nil {
			o.Failed, o.Err = true, fmt.Errorf("job %s solve %d: %w", in.name, k, err)
			return o
		}
		b := in.rhs[k]
		if len(st.reply.x) != len(b) {
			o.Failed, o.Wrong = true, true
			o.Err = fmt.Errorf("job %s solve %d: x has length %d, want %d", in.name, k, len(st.reply.x), len(b))
			return o
		}
		if rel := relResidual(in.a, st.reply.x, b, st.r); !(rel <= serveTol*residualSlack) {
			o.Failed, o.Wrong = true, true
			o.Err = fmt.Errorf("job %s solve %d: true residual %.3g exceeds %g·tol", in.name, k, rel, float64(residualSlack))
			return o
		}
	}
	return o
}
