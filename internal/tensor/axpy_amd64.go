//go:build amd64

package tensor

// haveAVX reports whether the CPU executes 256-bit AVX and the OS
// preserves YMM state across context switches (CPUID.1:ECX AVX +
// OSXSAVE, then XGETBV XCR0 XMM|YMM). Checked once at init; when
// false every kernel runs the portable Go loops, so the build is
// correct on any amd64 machine.
var haveAVX = cpuHasAVX()

// cpuHasAVX is implemented in axpy_amd64.s.
func cpuHasAVX() bool

// gemmTile4AVX is tile4's AVX form. A 4×8 block of the tile stays in
// eight YMM registers across the whole p loop; each step broadcasts the
// four a values, loads eight b values and issues a separate multiply
// and add per register (no FMA: each lane performs exactly the scalar
// round-to-nearest multiply then add, so results are bit-identical).
// Columns left over run as one 4×4 block and then single columns, the
// same way.
//
//go:noescape
func gemmTile4AVX(c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, k, n int)

// gemmRow1AVX is row1's AVX form: tile4's kernel for one row, the
// row's cells eight at a time in two YMM registers across the p loop.
//
//go:noescape
func gemmRow1AVX(c *float64, a *float64, aps int, b *float64, ldb, k, n int)

// axpy1AVX performs c[j] += a·b[j] for j = 0…n−1, n >= 1, with the
// same separate multiply and add: Add's kernel.
//
//go:noescape
func axpy1AVX(c, b *float64, n int, a float64)

// meanAVX is Mean's kernel over n cells of count vectors, vs pointing
// at the first of their slice headers: each lane sums one cell from +0
// in vector order and scales it by inv.
//
//go:noescape
func meanAVX(dst *float64, vs *[]float64, count, n int, inv float64)

// momentumAVX is MomentumStep's kernel over n cells: each lane updates
// one cell's velocity and parameter with the Go loop's separate
// multiplies, adds and subtract.
//
//go:noescape
func momentumAVX(x, v, grad *float64, n int, m, wd, lr float64)

// reluAVX is ReLU over n elements, n a positive multiple of 4: VBLENDVPD
// on x's own sign bit selects +0 or x.
//
//go:noescape
func reluAVX(dst, x *float64, n int)

// reluGradAVX is ReLUGrad over n elements, n a positive multiple of 4:
// dy where x's sign bit is clear, then cleared where x compares equal
// to zero.
//
//go:noescape
func reluGradAVX(dst, x, dy *float64, n int)
