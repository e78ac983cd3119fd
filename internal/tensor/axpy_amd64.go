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

// axpy1AVX performs c[j] += a·b[j] for j = 0…n−1, n >= 1, with the
// same separate multiply and add: the kernel of the one to three rows
// a quad leaves over.
//
//go:noescape
func axpy1AVX(c, b *float64, n int, a float64)
