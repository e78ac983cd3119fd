// Package tensor provides the dense float64 kernels used throughout
// the repository: flat vectors for model parameters (so decentralized
// parameter averaging is a plain vector operation) and row-major
// matrices for the neural-network layers.
package tensor

import (
	"fmt"
	"math"
)

// Zeros returns a zeroed vector of length n.
func Zeros(n int) []float64 { return make([]float64, n) }

// Clone returns a copy of v.
func Clone(v []float64) []float64 { return append([]float64(nil), v...) }

// Fill sets every element of v to x.
func Fill(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}

// Copy copies src into dst; the lengths must match.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Copy length mismatch %d vs %d", len(dst), len(src)))
	}
	copy(dst, src)
}

// Gather sets dst[i] = src[idx[i]] for every i; dst and idx must have the
// same length. An index outside src panics as the expression src[idx[i]]
// does, after the cells in front of it are written. With AVX-512F the
// cells go eight per VGATHERDPD, each block's indices range-checked
// first; the blocks stop in front of a bad index and the rest, like
// every cell elsewhere, take the Go loop.
func Gather(dst, src []float64, idx []int32) {
	if len(dst) != len(idx) {
		panic(fmt.Sprintf("tensor: Gather length mismatch dst=%d idx=%d", len(dst), len(idx)))
	}
	if haveAVX512 && len(idx) >= 8 && len(src) > 0 {
		i := gatherAVX512(&dst[0], &src[0], len(src), &idx[0], len(idx)&^7)
		dst, idx = dst[i:], idx[i:]
	}
	dst = dst[:len(idx)]
	for i, k := range idx {
		dst[i] = src[k]
	}
}

// AXPY computes dst += alpha * x.
func AXPY(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// Scale computes v *= alpha.
func Scale(v []float64, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Add computes dst += x: AXPY with alpha 1, bit for bit (1·x is exact),
// through the vector kernel when the CPU has one.
func Add(dst, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d vs %d", len(dst), len(x)))
	}
	axpy1(dst, x, 1)
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dist2 length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// meanTile is how many elements of dst Mean finishes before moving on
// when it has to walk the vectors one after another: 4 KiB of dst, so
// the running sums stay in L1 across the passes.
const meanTile = 512

// Mean overwrites dst with the element-wise mean of the vectors.
// vectors must be non-empty and all the same length as dst.
//
// Each element is ((0 + v₀) + v₁ + …)·(1/n), summed in vector order —
// bit for bit what zero-filling dst, adding the vectors one at a time
// and scaling produces (0 + −0 is +0, NaN propagates) — in one pass
// over dst instead of n+2. With AVX one kernel serves every vector
// count, a lane per element; the Go loops below are its portable form.
func Mean(dst []float64, vectors [][]float64) {
	if len(vectors) == 0 {
		panic("tensor: Mean of no vectors")
	}
	for _, v := range vectors {
		if len(v) != len(dst) {
			panic(fmt.Sprintf("tensor: Mean length mismatch %d vs %d", len(dst), len(v)))
		}
	}
	inv := 1 / float64(len(vectors))
	if haveAVX && len(dst) > 0 {
		meanAVX(&dst[0], &vectors[0], len(vectors), len(dst), inv)
		return
	}
	switch len(vectors) {
	case 1: // the tiled path takes first and last as two vectors
		a := vectors[0][:len(dst)]
		for i := range dst {
			dst[i] = (0 + a[i]) * inv
		}
	case 3: // a ring's reduce: both neighbours and self
		a, b, c := vectors[0][:len(dst)], vectors[1][:len(dst)], vectors[2][:len(dst)]
		for i := range dst {
			dst[i] = (0 + a[i] + b[i] + c[i]) * inv
		}
	default:
		first, last := vectors[0], vectors[len(vectors)-1]
		for lo := 0; lo < len(dst); lo += meanTile {
			hi := lo + meanTile
			if hi > len(dst) {
				hi = len(dst)
			}
			t := dst[lo:hi]
			for i, x := range first[lo:hi][:len(t)] {
				t[i] = 0 + x
			}
			for _, v := range vectors[1 : len(vectors)-1] {
				for i, x := range v[lo:hi][:len(t)] {
					t[i] += x
				}
			}
			for i, x := range last[lo:hi][:len(t)] {
				t[i] = (t[i] + x) * inv
			}
		}
	}
}

// MomentumStep is one momentum-SGD update in place, element by element:
// v ← ((m·v) + g) + (wd·x), then x ← x − lr·v, each operation rounded
// on its own. x, v and g must have the same length.
func MomentumStep(x, v, g []float64, m, wd, lr float64) {
	if len(v) != len(x) || len(g) != len(x) {
		panic(fmt.Sprintf("tensor: MomentumStep length mismatch x=%d v=%d g=%d", len(x), len(v), len(g)))
	}
	if haveAVX && len(x) > 0 {
		momentumAVX(&x[0], &v[0], &g[0], len(x), m, wd, lr)
		return
	}
	v, g = v[:len(x)], g[:len(x)]
	for i, xi := range x {
		vi := m*v[i] + g[i] + wd*xi
		v[i] = vi
		x[i] = xi - lr*vi
	}
}

// WeightedMean overwrites dst with Σ wᵢ·vᵢ / Σ wᵢ. The weight sum must
// be positive. This is the Eq. 2 aggregation used by bounded staleness.
func WeightedMean(dst []float64, vectors [][]float64, weights []float64) {
	if len(vectors) == 0 || len(vectors) != len(weights) {
		panic(fmt.Sprintf("tensor: WeightedMean %d vectors, %d weights", len(vectors), len(weights)))
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic(fmt.Sprintf("tensor: WeightedMean non-positive weight sum %g", total))
	}
	Fill(dst, 0)
	for i, v := range vectors {
		AXPY(dst, weights[i]/total, v)
	}
}

// Cache blocking of the tile loops: a gemmKC × gemmNC block of B (32
// KiB) is walked by every row quad before the next block is touched, so
// it is read from L1 rather than streamed once per quad. A k-block
// continues each cell's partial sum from C, in the same ascending-p
// order, so the block sizes never change a bit. Measured at -cpu 1 on
// the reference sandbox: BenchmarkGemmLarge (128·1152·256) 12.2 GFLOPS
// unblocked, 27 with k blocked, the same with n blocked as well; a
// 64·512·4096 panel 8.0 with k alone, 19 with both. 64–256 × 16–64 all
// read within the run-to-run spread of each other.
const (
	gemmKC = 128
	gemmNC = 32
)

// MatMul computes C = A·B for row-major flat matrices:
// A is m×k, B is k×n, C is m×n. C must not alias A or B.
//
// The kernel is register-tiled (four rows of C by eight columns stay in
// registers across k). Each cell C[i,j] accumulates a[i,p]·b[p,j] for
// p = 0…k−1 in increasing p order on every code path, so the result is
// bit-identical at any tile shape and block size.
func MatMul(c, a, b []float64, m, k, n int) {
	if len(a) != m*k || len(b) != k*n || len(c) != m*n {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch a=%d b=%d c=%d (m=%d k=%d n=%d)", len(a), len(b), len(c), m, k, n))
	}
	matMulRows(c, a, b, k, 1, m, k, n)
}

// matMulRows computes the m rows of C = A·B, where a[i*ars+p*aps] is
// A's element (i, p): row-major A has strides (k, 1), a k×m matrix read
// as its transpose (1, m). Rows advance four at a time through tile4,
// block by block of B, and the one to three rows a quad leaves over
// through row1, block by block likewise; every cell starts from +0 and
// takes its terms in ascending p — the summation order of the plain
// triple loop.
func matMulRows(c, a, b []float64, ars, aps, m, k, n int) {
	clear(c)
	m4 := m &^ 3
	for p0 := 0; p0 < k; p0 += gemmKC {
		kb := min(gemmKC, k-p0)
		for j0 := 0; j0 < n; j0 += gemmNC {
			nb := min(gemmNC, n-j0)
			bb := b[p0*n+j0:]
			for i := 0; i < m4; i += 4 {
				tile4(c[i*n+j0:], n, a[i*ars+p0*aps:], ars, aps, bb, n, kb, nb)
			}
			for i := m4; i < m; i++ {
				row1(c[i*n+j0:], a[i*ars+p0*aps:], aps, bb, n, kb, nb)
			}
		}
	}
}

// MatMulATB computes C = Aᵀ·B where A is k×m, B is k×n, C is m×n: the
// kernel of MatMul with A's strides swapped, so every cell accumulates
// over p = 0…k−1 in increasing order.
func MatMulATB(c, a, b []float64, k, m, n int) {
	if len(a) != k*m || len(b) != k*n || len(c) != m*n {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch a=%d b=%d c=%d (k=%d m=%d n=%d)", len(a), len(b), len(c), k, m, n))
	}
	matMulRows(c, a, b, 1, m, m, k, n)
}

// abtTransposeMinRows is the fewest rows of A for which MatMulABT
// transposes B first: the transpose moves n·k elements once, and every
// row of A then saves that many scalar multiply-adds.
const abtTransposeMinRows = 4

// MatMulABT computes C = A·Bᵀ where A is m×k, B is n×k, C is m×n. Each
// cell is one dot product accumulated over p = 0…k−1 in increasing
// order.
//
// A dot product may not be vectorized along k (§3.1 of DESIGN.md: never
// across the summation index), which leaves the direct kernel scalar.
// So for all but the thinnest shapes B is transposed into pooled
// scratch (GetVec: calls arrive concurrently from every step on the
// compute plane) and the product runs as MatMul's tile kernel, vectorized
// across the cells of a row of C: cell (i, j) still starts from +0 and
// adds a[i,p]·b[j,p] for p ascending with a separate multiply and add —
// the bits of the direct loop.
func MatMulABT(c, a, b []float64, m, k, n int) {
	if len(a) != m*k || len(b) != n*k || len(c) != m*n {
		panic(fmt.Sprintf("tensor: MatMulABT shape mismatch a=%d b=%d c=%d (m=%d k=%d n=%d)", len(a), len(b), len(c), m, k, n))
	}
	if m < abtTransposeMinRows || n < axpyVecMin {
		matMulABTRows(c, a, b, m, k, n)
		return
	}
	bt := GetVec(k * n)
	Transpose(bt, b, n, k)
	matMulRows(c, a, bt, k, 1, m, k, n)
	PutVec(bt)
}

// Transpose writes the rows×cols row-major matrix src into dst as its
// cols×rows transpose. dst must not alias src. Four source rows advance
// together so each destination row is written four adjacent cells at a
// time.
func Transpose(dst, src []float64, rows, cols int) {
	if len(src) != rows*cols || len(dst) != rows*cols {
		panic(fmt.Sprintf("tensor: Transpose shape mismatch dst=%d src=%d (rows=%d cols=%d)", len(dst), len(src), rows, cols))
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		s0 := src[r*cols : (r+1)*cols]
		s1 := src[(r+1)*cols : (r+2)*cols]
		s2 := src[(r+2)*cols : (r+3)*cols]
		s3 := src[(r+3)*cols : (r+4)*cols]
		s1, s2, s3 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)] // hoist bounds checks
		o := r
		for p, v := range s0 {
			d := dst[o : o+4 : o+4]
			d[0], d[1], d[2], d[3] = v, s1[p], s2[p], s3[p]
			o += rows
		}
	}
	for ; r < rows; r++ {
		for p, v := range src[r*cols : (r+1)*cols] {
			dst[p*rows+r] = v
		}
	}
}

// matMulABTRows computes the m rows of C = A·Bᵀ directly — the kernel
// of the shapes too thin to transpose for: the row of A is streamed
// once against four rows of B, with one independent accumulator per
// output cell.
func matMulABTRows(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s
		}
	}
}

// ArgMax returns the index of the largest element of v.
func ArgMax(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}
