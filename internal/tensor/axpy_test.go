package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scalarAxpy is the reference kernel: the exact multiply-then-add each
// output cell performs in the naive triple loop.
func scalarAxpy(c, b []float64, a float64) {
	for j, bv := range b {
		c[j] += a * bv
	}
}

func fillRand(r *rand.Rand, v []float64) {
	for i := range v {
		if x, ok := special(r); ok {
			v[i] = x
			continue
		}
		// Mix magnitudes so rounding differences would surface.
		v[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(7)-3))
	}
}

// TestAxpyBitIdentical pins axpy1/axpy4 (axpy1's AVX path included,
// when the host has it) bit-for-bit against the scalar kernel across
// row lengths straddling axpyVecMin, odd tails, and long rows.
func TestAxpyBitIdentical(t *testing.T) { eachKernel(t, testAxpyBitIdentical) }

func testAxpyBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	lengths := []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 31, 64, 100, 1023}
	for _, n := range lengths {
		b := make([]float64, n)
		fillRand(r, b)
		coef := []float64{0, 1, -1, 0.3, -2.5e3, 1e-7}
		for _, a := range coef {
			want := make([]float64, n)
			fillRand(r, want)
			got := append([]float64(nil), want...)
			scalarAxpy(want, b, a)
			axpy1(got, b, a)
			exactEq(t, fmt.Sprintf("axpy1 a=%g", a), got, want, 1, n)
		}

		// Four rows with distinct coefficients through axpy4.
		want := make([][]float64, 4)
		got := make([][]float64, 4)
		as := []float64{0.25, -3, 1e-4, 7.5}
		for r4 := 0; r4 < 4; r4++ {
			want[r4] = make([]float64, n)
			fillRand(r, want[r4])
			got[r4] = append([]float64(nil), want[r4]...)
			scalarAxpy(want[r4], b, as[r4])
		}
		axpy4(got[0], got[1], got[2], got[3], b, as[0], as[1], as[2], as[3])
		for r4 := 0; r4 < 4; r4++ {
			exactEq(t, fmt.Sprintf("axpy4 row %d", r4), got[r4], want[r4], 1, n)
		}
	}
}

// TestAxpyGoFallbackBitIdentical pins the portable Go path of axpy1 on
// its own at the lengths that always take it (rows shorter than
// axpyVecMin), whatever the host.
func TestAxpyGoFallbackBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for n := 1; n < axpyVecMin; n++ {
		b := make([]float64, n)
		fillRand(r, b)
		want := make([]float64, n)
		fillRand(r, want)
		got := append([]float64(nil), want...)
		scalarAxpy(want, b, 1.75)
		axpy1(got, b, 1.75)
		exactEq(t, "axpy1 fallback", got, want, 1, n)
	}
}

// TestTile4MatchesScalar drives the tile kernels directly, with strides
// no GEMM entry point produces: C, A and B each a window of a wider
// matrix, partial sums already in C (a k-block continuing another), and
// both A layouts. row1 runs each window's first row on its own.
func TestTile4MatchesScalar(t *testing.T) { eachKernel(t, testTile4MatchesScalar) }

func testTile4MatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for _, s := range []struct{ k, n, ldc, ldb, ars, aps int }{
		{1, 1, 1, 1, 1, 1},
		{5, 8, 8, 8, 5, 1},    // one full 4×8 block, A row-major
		{5, 8, 11, 13, 1, 7},  // the same inside wider C and B, A transposed
		{9, 12, 12, 12, 9, 1}, // 8 + 4 columns
		{9, 15, 17, 19, 1, 4}, // 8 + 4 + 3 single columns
		{3, 3, 5, 4, 6, 2},    // single columns only, A strided both ways
		{5, 16, 16, 16, 5, 1}, // one full 4×16 block
		{7, 31, 37, 35, 1, 9}, // 16 + 8 + 4 + 3 inside wider C and B, A transposed
		{130, 37, 40, 41, 131, 1},
		{4, 48, 53, 49, 1, 4}, // three 16-column blocks
	} {
		c := make([]float64, 3*s.ldc+s.n)
		a := make([]float64, 3*s.ars+(s.k-1)*s.aps+1)
		b := make([]float64, (s.k-1)*s.ldb+s.n)
		fillRand(r, c)
		fillRand(r, a)
		fillRand(r, b)
		want := append([]float64(nil), c...)
		for row := 0; row < 4; row++ {
			for p := 0; p < s.k; p++ {
				scalarAxpy(want[row*s.ldc:row*s.ldc+s.n], b[p*s.ldb:p*s.ldb+s.n], a[row*s.ars+p*s.aps])
			}
		}
		got := append([]float64(nil), c...)
		tile4(got, s.ldc, a, s.ars, s.aps, b, s.ldb, s.k, s.n)
		// The whole of c: cells between the rows of the window must be
		// untouched.
		exactEq(t, fmt.Sprintf("tile4 %+v", s), got, want, 4, s.n)

		got = append(got[:0], c...)
		row1(got, a, s.aps, b, s.ldb, s.k, s.n)
		copy(want[s.ldc:], c[s.ldc:]) // row1 leaves the other rows as they were
		exactEq(t, fmt.Sprintf("row1 %+v", s), got, want, 1, s.n)
	}
}

// TestGemmTileKernelShapes runs the full GEMM entry points on shapes
// chosen to exercise the tile kernel's edges — every row and column
// remainder, k and n on both sides of a cache block, rows shorter than
// axpyVecMin, and a large shape — pinning every output bit against the
// naive triple loop.
func TestGemmTileKernelShapes(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		checkGemmShapes(t, rand.New(rand.NewSource(43)), append([][3]int{
			{1, 1, 1},
			{3, 2, 7},    // n below axpyVecMin
			{4, 5, 8},    // n exactly axpyVecMin
			{5, 3, 9},    // quad remainder row + odd tail
			{6, 7, 13},   // odd everything
			{4, 4, 1024}, // long aligned rows
			{7, 9, 257},  // long rows with scalar tail
			{64, 128, 96},
			{33, 17, 129},
		}, tileEdgeShapes()...))
	})
}

func benchAxpyRow(b *testing.B, n int) {
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%17) * 0.25
		y[i] = float64(i%13) * 0.5
	}
	b.SetBytes(int64(8 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		axpy1(y, x, 1.0000001)
	}
	b.ReportMetric(float64(2*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func BenchmarkAxpy1Row256(b *testing.B)  { benchAxpyRow(b, 256) }
func BenchmarkAxpy1Row4096(b *testing.B) { benchAxpyRow(b, 4096) }

// BenchmarkGemmTile4 is the tile kernel on its own: four rows of C by
// one n-block, one k-block deep, operands resident in L1 — the ceiling
// the blocked GEMMs can approach.
func BenchmarkGemmTile4(b *testing.B) {
	a := make([]float64, 4*gemmKC)
	x := make([]float64, gemmKC*gemmNC)
	c := make([]float64, 4*gemmNC)
	for i := range a {
		a[i] = float64(i%17) * 0.25
	}
	for i := range x {
		x[i] = float64(i%13) * 0.5
	}
	b.SetBytes(int64(8 * (len(a) + len(x) + 2*len(c))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tile4(c, gemmNC, a, gemmKC, 1, x, gemmNC, gemmKC, gemmNC)
	}
	b.ReportMetric(float64(2*4*gemmKC*gemmNC)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}
