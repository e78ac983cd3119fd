package tensor

import (
	"fmt"
	"math"
)

// relu.go — the rectifier's two passes as branch-free kernels. On
// activations the sign of x is a coin flip, and a mispredicted branch
// per element costs more than the arithmetic around it, so both passes
// select with masks. They agree with the comparison x > 0 on every input
// but one: a NaN with a clear sign bit passes through ReLU (and lets dy
// through ReLUGrad) where the comparison would give 0. The amd64 build
// runs four elements per step in AVX (axpy_amd64.s); the Go loops below
// take the rest, and every element off amd64 or without AVX.

// ReLU writes max(0, x) into dst: x where its sign bit is clear, +0
// where it is set (negatives and −0).
func ReLU(dst, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: ReLU length mismatch %d vs %d", len(dst), len(x)))
	}
	i := 0
	if haveAVX && len(x) >= 4 {
		i = len(x) &^ 3
		reluAVX(&dst[0], &x[0], i)
	}
	for ; i < len(x); i++ {
		// Clear every bit when the sign bit is set.
		bits := math.Float64bits(x[i])
		dst[i] = math.Float64frombits(bits &^ uint64(int64(bits)>>63))
	}
}

// ReLUGrad writes ReLU's input gradient into dst: dy where x > 0 (by
// ReLU's rule above), +0 elsewhere.
func ReLUGrad(dst, x, dy []float64) {
	if len(dst) != len(x) || len(dy) != len(x) {
		panic(fmt.Sprintf("tensor: ReLUGrad length mismatch dst=%d x=%d dy=%d", len(dst), len(x), len(dy)))
	}
	i := 0
	if haveAVX && len(x) >= 4 {
		i = len(x) &^ 3
		reluGradAVX(&dst[0], &x[0], &dy[0], i)
	}
	for ; i < len(x); i++ {
		// x > 0 ⇔ sign bit clear and some other bit set; bits|(bits−1)
		// has its sign bit set for exactly the rest (negatives, and +0
		// through the borrow).
		bits := math.Float64bits(x[i])
		dst[i] = math.Float64frombits(math.Float64bits(dy[i]) &^ uint64(int64(bits|(bits-1))>>63))
	}
}
