package sstep

import (
	"hash/fnv"
	"math"
	"testing"

	"vrcg/internal/vec"
	"vrcg/sparse"
)

// goldenRow pins one s-step solve (S = 4, Tol 1e-8, MaxIter 600) of the
// periodic right-hand side b_i = 1 + ((i+s) mod p): its iteration and
// block counts and an FNV-1a hash of the bits of x. The values were
// captured from the per-vector kernel (one SpMV per power, one pooled
// Dot per Gram entry, one Axpy per combination term), so the table pins
// that the one-dispatch-per-phase block reproduces its iterates bit for
// bit.
type goldenRow struct {
	problem       string
	p, s          int
	iters, blocks int
	xHash         uint64
}

var goldenFamily = []goldenRow{
	{"poisson3d_40", 5, 0, 128, 32, 0x32172a28ac45a0ed},
	{"poisson3d_40", 5, 1, 114, 29, 0xcacf4cfce01591cd},
	{"poisson3d_40", 5, 2, 126, 32, 0x59822dc976200e29},
	{"poisson3d_40", 5, 3, 126, 32, 0x192116eb5e7d2c74},
	{"poisson3d_40", 5, 4, 115, 29, 0xa5aad1d5b098a218},
	{"poisson3d_40", 7, 0, 101, 26, 0x2de83e0e58c70bf1},
	{"poisson3d_40", 7, 1, 101, 26, 0x3122318fb4d21678},
	{"poisson3d_40", 7, 2, 101, 26, 0x3768a551fa4d4cfd},
	{"poisson3d_40", 7, 3, 101, 26, 0x97da09fab29a1a9b},
	{"poisson3d_40", 7, 4, 101, 26, 0x18df5ea766d41d66},
	{"poisson3d_40", 7, 5, 101, 26, 0x3d35b9d96ec253fb},
	{"poisson3d_40", 7, 6, 101, 26, 0xa1a9cc09b36c7c76},
	{"poisson3d_40", 11, 0, 102, 26, 0x5d207d039b4b0ef2},
	{"poisson3d_40", 11, 1, 102, 26, 0x544771a778fd1315},
	{"poisson3d_40", 11, 2, 102, 26, 0xbf38657fba3c6014},
	{"poisson3d_40", 11, 3, 102, 26, 0xd5e342f53adba70c},
	{"poisson3d_40", 11, 4, 102, 26, 0xcf2d682244da3e50},
	{"poisson3d_40", 11, 5, 102, 26, 0x42c5a43bf317f31d},
	{"poisson3d_40", 11, 6, 102, 26, 0x37b9d255fca447d7},
	{"poisson3d_40", 11, 7, 102, 26, 0x670f20b40f36416},
	{"poisson3d_40", 11, 8, 102, 26, 0x4da5e73ef2a1f8b7},
	{"poisson3d_40", 11, 9, 102, 26, 0xbedfb685302eb8da},
	{"poisson3d_40", 11, 10, 102, 26, 0x646cc164b70c5786},
	{"poisson2d_20", 5, 0, 55, 14, 0xa2aa3b4e39283d00},
	{"poisson2d_20", 5, 1, 52, 13, 0xd66c2647167a5bc6},
	{"poisson2d_20", 5, 2, 55, 14, 0xcaef1a689aaceab5},
	{"poisson2d_20", 5, 3, 55, 14, 0x676281301c748471},
	{"poisson2d_20", 5, 4, 52, 13, 0x53d3385afa1c4a98},
	{"poisson2d_20", 7, 0, 42, 11, 0xf8abb97fc044c4d},
	{"poisson2d_20", 7, 1, 41, 11, 0x5afd3cc47037fd98},
	{"poisson2d_20", 7, 2, 42, 11, 0xc3506373895cd15b},
	{"poisson2d_20", 7, 3, 40, 10, 0x1eb9f74e41a25f0},
	{"poisson2d_20", 7, 4, 42, 11, 0xc90126bc866a777e},
	{"poisson2d_20", 7, 5, 41, 11, 0xae4699a94864b195},
	{"poisson2d_20", 7, 6, 42, 11, 0xe26479e0c679d420},
	{"poisson2d_20", 11, 0, 62, 16, 0x702286a29f1058dd},
	{"poisson2d_20", 11, 1, 59, 15, 0xeb58a15aa2713435},
	{"poisson2d_20", 11, 2, 62, 16, 0x527b5c44cab76753},
	{"poisson2d_20", 11, 3, 61, 16, 0xcfdb332b7628862},
	{"poisson2d_20", 11, 4, 61, 16, 0x72b9a375433afa5f},
	{"poisson2d_20", 11, 5, 62, 16, 0x50def340c96013e0},
	{"poisson2d_20", 11, 6, 59, 15, 0x238c4fe4cdbdffa8},
	{"poisson2d_20", 11, 7, 61, 16, 0xf0b8cc6f18293188},
	{"poisson2d_20", 11, 8, 62, 16, 0x6a8af98ca15dc397},
	{"poisson2d_20", 11, 9, 55, 14, 0x5c58db3d756c3515},
	{"poisson2d_20", 11, 10, 62, 16, 0x583c5d4387d8d82f},
	{"poisson2d_31", 5, 0, 84, 21, 0x7c69530c4bb4068e},
	{"poisson2d_31", 5, 1, 83, 21, 0x5dedc551970965f1},
	{"poisson2d_31", 5, 2, 75, 19, 0x36fed3edc4df7aec},
	{"poisson2d_31", 5, 3, 83, 21, 0x4477be8681747659},
	{"poisson2d_31", 5, 4, 84, 21, 0x28a4a6b7cb40ac98},
	{"poisson2d_31", 7, 0, 84, 21, 0xcdfca80d85e26f8c},
	{"poisson2d_31", 7, 1, 84, 21, 0xcb8b224cf85f2a87},
	{"poisson2d_31", 7, 2, 78, 20, 0x28db273eec21aae2},
	{"poisson2d_31", 7, 3, 78, 20, 0x8fb8d5a14e44a5dc},
	{"poisson2d_31", 7, 4, 84, 21, 0x7d805e5de6d50df3},
	{"poisson2d_31", 7, 5, 84, 21, 0xdba430b609560e18},
	{"poisson2d_31", 7, 6, 78, 20, 0x918e7d0518f89bb6},
	{"poisson2d_31", 11, 0, 88, 22, 0x74146d4e92f0151c},
	{"poisson2d_31", 11, 1, 87, 22, 0x556a76998a1f6326},
	{"poisson2d_31", 11, 2, 89, 23, 0xf12e12d1f2f4b5d},
	{"poisson2d_31", 11, 3, 90, 23, 0x4e461bf21f1786d1},
	{"poisson2d_31", 11, 4, 90, 23, 0xd7831cbeca1d32de},
	{"poisson2d_31", 11, 5, 89, 23, 0xb95292735ea20d05},
	{"poisson2d_31", 11, 6, 87, 22, 0x9ca3830cd1dd9908},
	{"poisson2d_31", 11, 7, 88, 22, 0x3f8dcf74a1c0c227},
	{"poisson2d_31", 11, 8, 90, 23, 0xa820a2ecca312973},
	{"poisson2d_31", 11, 9, 83, 21, 0x12610af45ae12844},
	{"poisson2d_31", 11, 10, 90, 23, 0x88670b2ec41f1a7d},
}

// goldenBlockSizes pins S = 1, 2, 3, 5, 6 on poisson2d_31 with
// b_i = 1 + ((i+3) mod 7): every pair-list and coefficient-matrix shape
// the block update can take at small s.
var goldenBlockSizes = []struct {
	s, iters, blocks int
	xHash            uint64
}{
	{1, 78, 78, 0x61c6c93ba4092014},
	{2, 78, 39, 0x308003cb40a7002a},
	{3, 78, 26, 0x26cb54549f70de95},
	{5, 78, 16, 0x2ae1bb03783f73d1},
	{6, 78, 13, 0x8ec1d2b48f2cddb1},
}

// hashBits is FNV-1a over the little-endian bits of x.
func hashBits(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func periodicRHS(b []float64, p, s int) {
	for i := range b {
		b[i] = float64(1 + (i+s)%p)
	}
}

// TestGoldenIterates: Poisson3D m=40 (tuned to SELL, on a 2-worker
// pool) over the whole periodic family, and Poisson2D m=20/31 serially,
// give the pinned iteration counts and bitwise the pinned x. Under
// -race the large problem solves only the s = 0 member of each period.
func TestGoldenIterates(t *testing.T) {
	pool := vec.NewPool(2)
	defer pool.Close()
	ops := map[string]sparse.Matrix{
		"poisson3d_40": sparse.Poisson3D(40),
		"poisson2d_20": sparse.Poisson2D(20),
		"poisson2d_31": sparse.Poisson2D(31),
	}
	if _, ok := sparse.TuneMulVec(ops["poisson3d_40"]).(*sparse.SELL); !ok {
		t.Fatal("poisson3d_40 is not tuned to SELL; the golden no longer covers the SELL path")
	}
	for _, g := range goldenFamily {
		a := ops[g.problem]
		var p *vec.Pool
		if g.problem == "poisson3d_40" {
			if raceEnabled && g.s != 0 {
				continue
			}
			p = pool
		}
		b := make([]float64, a.Dim())
		periodicRHS(b, g.p, g.s)
		res, err := Solve(a, b, Options{S: 4, Tol: 1e-8, MaxIter: 600, Pool: p})
		if err != nil {
			t.Fatalf("%s p=%d s=%d: %v", g.problem, g.p, g.s, err)
		}
		if res.Iterations != g.iters || res.Blocks != g.blocks {
			t.Fatalf("%s p=%d s=%d: %d iterations in %d blocks, golden %d in %d",
				g.problem, g.p, g.s, res.Iterations, res.Blocks, g.iters, g.blocks)
		}
		if h := hashBits(res.X); h != g.xHash {
			t.Fatalf("%s p=%d s=%d: x hash %#x, golden %#x", g.problem, g.p, g.s, h, g.xHash)
		}
	}
}

// TestGoldenBlockSizes: the block-size sweep reproduces its pinned
// iterates serially and on a pool forced onto the parallel path.
func TestGoldenBlockSizes(t *testing.T) {
	a := sparse.Poisson2D(31)
	b := make([]float64, a.Dim())
	periodicRHS(b, 7, 3)
	pool := vec.NewPoolMinChunk(2, 32)
	defer pool.Close()
	for _, g := range goldenBlockSizes {
		for _, p := range []*vec.Pool{nil, pool} {
			res, err := Solve(a, b, Options{S: g.s, Tol: 1e-8, MaxIter: 600, Pool: p})
			if err != nil {
				t.Fatalf("S=%d pooled=%v: %v", g.s, p != nil, err)
			}
			if res.Iterations != g.iters || res.Blocks != g.blocks || hashBits(res.X) != g.xHash {
				t.Fatalf("S=%d pooled=%v: %d iterations in %d blocks, x hash %#x; golden %d in %d, %#x",
					g.s, p != nil, res.Iterations, res.Blocks, hashBits(res.X), g.iters, g.blocks, g.xHash)
			}
		}
	}
}
