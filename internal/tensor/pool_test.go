package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// --- Naive reference kernels -----------------------------------------
//
// These are the plain triple loops the tiled kernels must match *bit
// for bit* (not within epsilon): the tiling contract is that every
// output cell accumulates its k-dimension terms in
// increasing order into one accumulator, which is exactly what these
// loops do.

func refMatMul(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
}

func refMatMulATB(c, a, b []float64, k, m, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[p*m+i] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
}

func refMatMulABT(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			c[i*n+j] = s
		}
	}
}

// special returns, about once in thirty draws, a value on which a
// kernel that is only nearly the scalar loop gives itself away: a
// signed zero or a subnormal most of the time, and a cell-poisoning
// NaN or infinity rarely enough that most cells of a small product stay
// finite.
func special(rng *rand.Rand) (float64, bool) {
	switch r := rng.Intn(1024); {
	case r == 0:
		return math.NaN(), true
	case r < 3:
		return math.Inf(2*r - 3), true
	case r < 19:
		return math.Copysign(0, float64(r%2)-0.5), true
	case r < 35:
		return math.Copysign(math.SmallestNonzeroFloat64*float64(1+rng.Intn(1<<20)), float64(r%2)-0.5), true
	}
	return 0, false
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if x, ok := special(rng); ok {
			v[i] = x
			continue
		}
		// Mix magnitudes so summation order actually matters: if the
		// tiled kernels reassociated additions, these would differ.
		v[i] = rng.NormFloat64() * float64(int(1)<<uint(rng.Intn(20)))
	}
	return v
}

// sameBits reports whether got is the value the reference computed:
// the same bits — so −0 is not +0 — or a NaN where the reference has a
// NaN. NaN payloads are left out because x86 takes the payload of a
// two-NaN operation from its first operand and neither the compiler nor
// the kernels promise an operand order.
func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// exactEq requires every cell of got to be sameBits as the reference.
func exactEq(t *testing.T, name string, got, want []float64, m, n int) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s (%dx%d): cell %d = %g (%#x), reference %g (%#x): not bit-identical",
				name, m, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// eachKernel runs body against the kernels this machine selects, again
// with the AVX-512 paths switched off (the AVX2 column walk, 8 → 4 → 1),
// and again with every vector kernel off, so the walks the other
// machines take — the portable loops are the only path off amd64 — are
// held to the same tables on whichever host runs the tests.
func eachKernel(t *testing.T, body func(t *testing.T)) {
	t.Run("native", body)
	t.Run("avx2", func(t *testing.T) { withoutAVX512(func() { body(t) }) })
	t.Run("portable", func(t *testing.T) { withoutAVX(func() { body(t) }) })
}

// TestKernelsSelected logs which kernels this host runs (go test -v):
// a green run pins the native walk only for the host it ran on.
func TestKernelsSelected(t *testing.T) {
	t.Logf("haveAVX=%v haveAVX512=%v", haveAVX, haveAVX512)
	if haveAVX512 && !haveAVX {
		t.Fatal("haveAVX512 without haveAVX")
	}
}

// tileEdgeShapes is every way a product can meet the tile kernel's
// edges: each m mod 4 with and without a full quad beside it, each
// n mod 8 likewise, n through the 16-column block and the 8 and 4 after
// it, k on both sides of a k-block and across several, and n on both
// sides of an n-block. MatMulATB runs the same shapes with A's strides
// swapped.
func tileEdgeShapes() [][3]int {
	var shapes [][3]int
	for m := 1; m <= 8; m++ {
		for n := 1; n <= 16; n++ {
			shapes = append(shapes, [3]int{m, 3, n})
		}
		for _, n := range []int{17, 23, 24, 31, 33, 47, 48} {
			shapes = append(shapes, [3]int{m, 3, n})
		}
	}
	for _, k := range []int{1, gemmKC - 1, gemmKC, gemmKC + 1, 3*gemmKC + 5} {
		shapes = append(shapes, [3]int{5, k, 13}, [3]int{8, k, gemmNC + 3})
	}
	for _, n := range []int{gemmNC - 1, gemmNC, gemmNC + 1, 2*gemmNC + 9, 3*gemmNC + 5} {
		shapes = append(shapes, [3]int{6, 7, n}, [3]int{4, gemmKC + 2, n})
	}
	// The rows a quad leaves over run row1 block by block: each m mod 4
	// with and without a quad, k across a k-block, n through its column
	// tiles (single columns only, 8, and 8+8+8+3).
	for _, m := range []int{1, 2, 3, 5, 6, 7} {
		for _, k := range []int{1, gemmKC - 1, gemmKC, gemmKC + 1, 300} {
			for _, n := range []int{1, 3, 8, 27} {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	return shapes
}

// checkGemmShapes holds MatMul, MatMulATB and MatMulABT to the naive
// triple loops on every shape.
func checkGemmShapes(t *testing.T, rng *rand.Rand, shapes [][3]int) {
	t.Helper()
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, at := randVec(rng, m*k), randVec(rng, k*m)
		b, bt := randVec(rng, k*n), randVec(rng, n*k)
		wantAB, wantATB, wantABT := make([]float64, m*n), make([]float64, m*n), make([]float64, m*n)
		refMatMul(wantAB, a, b, m, k, n)
		refMatMulATB(wantATB, at, b, k, m, n)
		refMatMulABT(wantABT, a, bt, m, k, n)
		got := make([]float64, m*n)
		name := fmt.Sprintf("/k=%d", k)
		MatMul(got, a, b, m, k, n)
		exactEq(t, "MatMul"+name, got, wantAB, m, n)
		MatMulATB(got, at, b, k, m, n)
		exactEq(t, "MatMulATB"+name, got, wantATB, m, n)
		MatMulABT(got, a, bt, m, k, n)
		exactEq(t, "MatMulABT"+name, got, wantABT, m, n)
	}
}

// TestGemmMatchesNaiveExactly is the determinism property test: across
// odd and degenerate shapes, every tiled kernel must equal the naive
// triple loop exactly.
func TestGemmMatchesNaiveExactly(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		checkGemmShapes(t, rand.New(rand.NewSource(7)), [][3]int{
			{1, 1, 1}, {1, 7, 1}, {3, 1, 5}, {2, 2, 2},
			{5, 3, 7}, {7, 13, 9}, {8, 27, 64}, {16, 72, 16},
			{17, 31, 29}, {64, 64, 64}, {33, 129, 65}, {16, 1024, 10},
			// Both sides of MatMulABT's transpose-or-not shape test (m ≥
			// abtTransposeMinRows and n ≥ axpyVecMin), the CNN's
			// transposed conv weight gradients (27 rows: a quad
			// remainder) and its dense forwards.
			{3, 5, 8}, {4, 5, 7}, {4, 5, 8}, {4, 1, 9}, {5, 6, 11},
			{27, 64, 8}, {72, 16, 16}, {16, 64, 64}, {16, 64, 4},
			// Several blocks each way under a row remainder.
			{67, 2*gemmKC + 3, 8*gemmNC + 5},
		})
	})
}

// TestTranspose covers the four-row blocks and the row tail.
func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range [][2]int{{1, 1}, {1, 5}, {3, 4}, {4, 3}, {7, 9}, {8, 1}, {27, 64}} {
		rows, cols := s[0], s[1]
		src := randVec(rng, rows*cols)
		dst := make([]float64, rows*cols)
		Transpose(dst, src, rows, cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if math.Float64bits(dst[c*rows+r]) != math.Float64bits(src[r*cols+c]) {
					t.Fatalf("%dx%d: dst[%d,%d] = %g, want src[%d,%d] = %g", rows, cols, c, r, dst[c*rows+r], r, c, src[r*cols+c])
				}
			}
		}
	}
}

// TestSetWorkersClamp checks the knob semantics: negative resets to
// the GOMAXPROCS default, positive values are honored as given.
func TestSetWorkersClamp(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(-5)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after reset", Workers())
	}
}
