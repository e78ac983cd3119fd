package tensor

import (
	"math"
	"testing"
)

// TestReLUMatchesComparison pins both ReLU kernels against the
// comparison x > 0, bit for bit, over the values where a mask could go
// wrong: both zeros, the smallest denormals, ordinary values, the
// infinities, and quiet NaNs of either sign carrying a payload — where
// the documented rule departs from the comparison: +NaN passes through
// ReLU and lets dy through ReLUGrad, −NaN gives +0. The gradient entries
// carry their own sign bits (and one a NaN) so a mask leaking into dy
// would show. Every row is run at every position of every length 0–13,
// so the vector kernels' tails are reached as well as their bodies.
func TestReLUMatchesComparison(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		tiny := math.SmallestNonzeroFloat64
		nan := math.Float64frombits(0x7ff8_0000_0000_0123)
		negNaN := math.Float64frombits(0xfff8_0000_0000_0123)
		dyNaN := math.Float64frombits(0x7ff8_0000_0000_0456)
		rows := []struct{ x, dy float64 }{
			{0, 3}, {math.Copysign(0, -1), -3}, {tiny, math.Copysign(0, -1)}, {-tiny, tiny},
			{1, -tiny}, {-1, math.Inf(-1)}, {2.5, 7}, {-2.5, -7},
			{math.MaxFloat64, 1}, {-math.MaxFloat64, 1}, {math.Inf(1), -2}, {math.Inf(-1), 2},
			{nan, -5}, {negNaN, 5}, {3, dyNaN},
		}
		for n := 0; n <= 13; n++ {
			for off := range rows {
				x, dy := make([]float64, n), make([]float64, n)
				for i := range x {
					r := rows[(off+i)%len(rows)]
					x[i], dy[i] = r.x, r.dy
				}
				out, dx := make([]float64, n), make([]float64, n)
				Fill(out, 42) // every cell must be written
				Fill(dx, 42)
				ReLU(out, x)
				ReLUGrad(dx, x, dy)
				for i, v := range x {
					wantOut, wantDx := 0.0, 0.0
					if v > 0 || (math.IsNaN(v) && !math.Signbit(v)) {
						wantOut, wantDx = v, dy[i]
					}
					if math.Float64bits(out[i]) != math.Float64bits(wantOut) {
						t.Fatalf("n=%d: ReLU(%v) at %d = %v (bits %#x), want bits %#x", n, v, i, out[i], math.Float64bits(out[i]), math.Float64bits(wantOut))
					}
					if math.Float64bits(dx[i]) != math.Float64bits(wantDx) {
						t.Fatalf("n=%d: ReLUGrad at %d, x=%v, dy=%v: %v (bits %#x), want bits %#x", n, i, v, dy[i], dx[i], math.Float64bits(dx[i]), math.Float64bits(wantDx))
					}
				}
			}
		}
	})
}
