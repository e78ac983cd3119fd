//go:build !amd64

package tensor

// Non-amd64 builds have no hand-vectorized kernels; the portable Go
// loops in axpy.go and relu.go serve every call.
const (
	haveAVX    = false
	haveAVX512 = false
)

func gatherAVX512(dst, src *float64, srcLen int, idx *int32, n int) int {
	panic("tensor: gatherAVX512 on non-amd64")
}

func gemmTile4AVX(c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, k, n int) {
	panic("tensor: gemmTile4AVX on non-amd64")
}

func gemmRow1AVX(c *float64, a *float64, aps int, b *float64, ldb, k, n int) {
	panic("tensor: gemmRow1AVX on non-amd64")
}

func axpy1AVX(c, b *float64, n int, a float64) {
	panic("tensor: axpy1AVX on non-amd64")
}

func meanAVX(dst *float64, vs *[]float64, count, n int, inv float64) {
	panic("tensor: meanAVX on non-amd64")
}

func momentumAVX(x, v, grad *float64, n int, m, wd, lr float64) {
	panic("tensor: momentumAVX on non-amd64")
}

func reluAVX(dst, x *float64, n int) {
	panic("tensor: reluAVX on non-amd64")
}

func reluGradAVX(dst, x, dy *float64, n int) {
	panic("tensor: reluGradAVX on non-amd64")
}
