package engine

import (
	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/sparse"
)

// Workspace is the size-keyed vector arena every kernel draws from,
// plus the worker pool its kernels run on. Vectors are handed out by
// index (Vec) and grown lazily, so a warm workspace serves repeated
// solves against same-order operators with zero heap allocations; the
// history slab is likewise owned here and reused across solves.
//
// Contract: vectors obtained from the arena — including the X field of
// a Result produced on it — are owned by the workspace and valid only
// until the next solve on it. A Workspace is not safe for concurrent
// solves; use one per goroutine (they are cheap).
type Workspace struct {
	pool *vec.Pool
	n    int

	vecs []vec.Vector
	// vecsN is the second, length-keyed arena (VecN): vectors whose
	// length differs from the system order — the rows-length residual
	// vectors of the rectangular least-squares kernels and the flat
	// Hessenberg/Givens scratch of GMRES(m). Each index keeps whatever
	// capacity its largest request needed, so warm repeated solves
	// allocate nothing here either.
	vecsN   []vec.Vector
	history []float64
	run     Run
}

// NewWorkspace returns a workspace for order-n systems running its
// kernels on pool. A nil pool selects the serial kernels.
func NewWorkspace(n int, pool *vec.Pool) *Workspace {
	if n <= 0 {
		panic("engine: NewWorkspace requires n > 0")
	}
	return &Workspace{pool: pool, n: n}
}

// Pool returns the worker pool the workspace dispatches to (nil = serial).
func (ws *Workspace) Pool() *vec.Pool { return ws.pool }

// Dim returns the system order the workspace is sized for.
func (ws *Workspace) Dim() int { return ws.n }

// Vec returns the i-th arena vector, allocating it on first use. The
// same index always returns the same storage, so kernels name their
// vectors by fixed indices and reuse them across solves. Contents
// persist between solves; kernels must initialize what they read.
func (ws *Workspace) Vec(i int) vec.Vector {
	for len(ws.vecs) <= i {
		ws.vecs = append(ws.vecs, vec.New(ws.n))
	}
	return ws.vecs[i]
}

// VecN returns the i-th vector of the length-keyed arena, sized to
// length. Indices are independent of Vec's: VecN(0, m) and Vec(0) are
// different storage. The same index keeps its capacity across solves
// (growing only when a larger length is requested), so kernels that ask
// for the same shapes every solve allocate nothing in steady state.
// Contents persist between calls; kernels must initialize what they
// read.
func (ws *Workspace) VecN(i, length int) vec.Vector {
	for len(ws.vecsN) <= i {
		ws.vecsN = append(ws.vecsN, nil)
	}
	if cap(ws.vecsN[i]) < length {
		ws.vecsN[i] = vec.New(length)
	}
	return ws.vecsN[i][:length]
}

// Reserve eagerly allocates the first count arena vectors, so a
// constructor can keep every allocation out of the first solve —
// latency-sensitive callers build the workspace up front precisely to
// avoid paying it on the first request.
func (ws *Workspace) Reserve(count int) {
	if count > 0 {
		ws.Vec(count - 1)
	}
}

// Pooled kernel dispatch: every hot-path vector operation a kernel
// performs goes through one of these (or MatVec), so pool routing is
// decided in exactly one place.

// Dot returns <x, y> on the workspace pool.
func (ws *Workspace) Dot(x, y vec.Vector) float64 { return vec.PoolDot(ws.pool, x, y) }

// DotPair returns <x, y> and <x, z> in one sweep.
func (ws *Workspace) DotPair(x, y, z vec.Vector) (xy, xz float64) {
	return vec.PoolDotPair(ws.pool, x, y, z)
}

// Axpy computes y += alpha*x.
func (ws *Workspace) Axpy(alpha float64, x, y vec.Vector) { vec.PoolAxpy(ws.pool, alpha, x, y) }

// Xpay computes y = x + alpha*y.
func (ws *Workspace) Xpay(x vec.Vector, alpha float64, y vec.Vector) {
	vec.PoolXpay(ws.pool, x, alpha, y)
}

// FusedCGUpdate performs x += alpha*p, r -= alpha*ap and returns the
// new <r, r> in one sweep.
func (ws *Workspace) FusedCGUpdate(alpha float64, p, ap, x, r vec.Vector) float64 {
	return vec.PoolFusedCGUpdate(ws.pool, alpha, p, ap, x, r)
}

// MatVec computes dst = A*x on the workspace pool when the operator
// supports pooled products.
func (ws *Workspace) MatVec(a sparse.Matrix, dst, x vec.Vector) {
	sparse.PooledMulVec(a, ws.pool, dst, x)
}

// MatVecs computes dsts[j] = A*xs[j] for every column on the workspace
// pool, using the operator's one-pass multi-vector product when it
// offers one (see sparse.MultiMulVec) and per-column products otherwise.
func (ws *Workspace) MatVecs(a sparse.Matrix, dsts, xs []vec.Vector) {
	sparse.PooledMulVecs(a, ws.pool, dsts, xs)
}

// DotBlock fills out[i*len(ys)+j] = <xs[i], ys[j]> — the s×s block Gram
// reduction — in one pooled dispatch.
func (ws *Workspace) DotBlock(xs, ys []vec.Vector, out []float64) {
	vec.PoolDotBlock(ws.pool, xs, ys, out)
}

// AxpyBlock accumulates ys[j] += sum_i coef[i*len(ys)+j]*xs[i] in one
// pooled dispatch.
func (ws *Workspace) AxpyBlock(coef []float64, xs, ys []vec.Vector) {
	vec.PoolAxpyBlock(ws.pool, coef, xs, ys)
}

// DotList fills out[k] = <xs[k], ys[k]> — an s-step block's Gram
// sequences — in one pooled dispatch.
func (ws *Workspace) DotList(xs, ys []vec.Vector, out []float64) {
	vec.PoolDotList(ws.pool, xs, ys, out)
}

// LincombBlock sets ys[j] = sum_i coef[i*len(ys)+j]*xs[i] and, when acc
// is non-nil, acc += ys[0], in one pooled dispatch.
func (ws *Workspace) LincombBlock(coef []float64, xs, ys []vec.Vector, acc vec.Vector) {
	vec.PoolLincombBlock(ws.pool, coef, xs, ys, acc)
}

// MatVecT computes dst = Aᵀ*x on the workspace pool when the operator
// supports pooled transpose products. Kernels obtain the operator from
// Run.AT, which the driver populates only when the (pre-tuning)
// operator supports transpose products at all.
func (ws *Workspace) MatVecT(a sparse.TransposeMulVec, dst, x vec.Vector) {
	sparse.PooledMulVecT(a, ws.pool, dst, x)
}

// ApplyPrecond computes dst = M^{-1} r, routing pointwise
// preconditioners through the pool.
func (ws *Workspace) ApplyPrecond(m precond.Preconditioner, dst, r vec.Vector) {
	if ws.pool != nil {
		if pa, ok := m.(precond.PoolApplier); ok {
			pa.ApplyPool(ws.pool, dst, r)
			return
		}
	}
	m.Apply(dst, r)
}

// MatVecFlops returns the flop cost charged for one product with a:
// 2*nnz for sparse operators, 2*n^2 for dense ones.
func MatVecFlops(a sparse.Matrix) int64 {
	if sp, ok := a.(sparse.Sparse); ok {
		return 2 * int64(sp.NNZ())
	}
	n := int64(a.Dim())
	return 2 * n * n
}
