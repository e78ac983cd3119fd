package tensor

// axpy.go — the inner kernels of the GEMM family. matMulRows cuts C
// into tiles of four rows and hands each tile to tile4 (and each row a
// quad leaves over to row1, the same with r = 0 alone),
//
//	C[r, j] += a[r, p] * b[p, j]    for p ascending, r = 0…3, j = 0…n−1
//
// which vectorizes *across output cells*: lane j of a SIMD register
// holds cell (r, j)'s accumulator, and one vector step performs the
// identical multiply-then-add each cell would have performed scalar.
// Because no lane ever combines terms from two cells — and because the
// kernels use separate multiply and add instructions, never FMA — the
// vectorized result is bit-for-bit the scalar result, preserving the
// fixed-summation-order contract of DESIGN.md §3.1 (cells stay in
// registers across k; never vectorize across k).
//
// The amd64 build carries the hand-written AVX tile kernels
// (axpy_amd64.s, gonum/asm-style) selected at init by CPUID; every
// other platform, and machines without AVX, run the Go loops below,
// which the property tests pin bit-identical to the naive triple loop
// either way.

// tile4 adds the k-term partial products of four rows of A with B to a
// four-row, n-column tile of C: c[r*ldc+j] += a[r*ars+p*aps] * b[p*ldb+j]
// for p = 0…k−1 in ascending order per cell. Strides are in elements;
// k and n must be at least 1.
func tile4(c []float64, ldc int, a []float64, ars, aps int, b []float64, ldb, k, n int) {
	// One bounds check per operand for the whole tile: the last element
	// each side touches.
	_, _, _ = c[3*ldc+n-1], a[3*ars+(k-1)*aps], b[(k-1)*ldb+n-1]
	if haveAVX {
		gemmTile4AVX(&c[0], ldc, &a[0], ars, aps, &b[0], ldb, k, n)
		return
	}
	c0, c1, c2, c3 := c[:n], c[ldc:ldc+n], c[2*ldc:2*ldc+n], c[3*ldc:3*ldc+n]
	for p := 0; p < k; p++ {
		ap := a[p*aps:]
		axpy4(c0, c1, c2, c3, b[p*ldb:p*ldb+n], ap[0], ap[ars], ap[2*ars], ap[3*ars])
	}
}

// row1 is tile4 for a single row: c[j] += a[p*aps] * b[p*ldb+j] for
// p = 0…k−1 in ascending order per cell; k and n must be at least 1.
func row1(c, a []float64, aps int, b []float64, ldb, k, n int) {
	_, _, _ = c[n-1], a[(k-1)*aps], b[(k-1)*ldb+n-1]
	if haveAVX {
		gemmRow1AVX(&c[0], &a[0], aps, &b[0], ldb, k, n)
		return
	}
	c = c[:n]
	for p := 0; p < k; p++ {
		axpy1(c, b[p*ldb:p*ldb+n], a[p*aps])
	}
}

// axpyVecMin is the shortest row worth a vector-kernel call; below it
// the call overhead exceeds the arithmetic and the inlined Go loop
// wins.
const axpyVecMin = 8

// axpy4 computes cr[j] += ar·b[j] for four C rows sharing one streamed
// B row: the portable form of one p step of the tile kernel. The rows
// must each be at least len(b) long.
func axpy4(c0, c1, c2, c3, b []float64, a0, a1, a2, a3 float64) {
	n := len(b)
	_, _, _ = c0[n-1], c1[n-1], c2[n-1] // hoist bounds checks
	_ = c3[n-1]
	for j, bv := range b {
		c0[j] += a0 * bv
		c1[j] += a1 * bv
		c2[j] += a2 * bv
		c3[j] += a3 * bv
	}
}

// axpy1 computes c[j] += a·b[j] for j < len(b): row1's portable step
// and Add.
func axpy1(c, b []float64, a float64) {
	n := len(b)
	if haveAVX && n >= axpyVecMin {
		_ = c[n-1]
		axpy1AVX(&c[0], &b[0], n, a)
		return
	}
	c = c[:n]
	for j, bv := range b {
		c[j] += a * bv
	}
}
