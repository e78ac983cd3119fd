//go:build amd64

package tensor

// haveAVX reports whether the CPU executes 256-bit AVX and the OS
// preserves YMM state across context switches (CPUID.1:ECX AVX +
// OSXSAVE, then XGETBV XCR0 XMM|YMM). Checked once at init; when
// false every kernel runs the portable Go loops, so the build is
// correct on any amd64 machine.
var haveAVX = cpuHasAVX()

// haveAVX512 reports whether the CPU also executes AVX-512F and the OS
// preserves ZMM and opmask state (CPUID.(7,0):EBX bit 16, then XCR0
// bits 1, 2, 5, 6, 7). It implies haveAVX. The GEMM tile kernels read
// it to lead their column walk with 16-column blocks, and Gather to
// use VGATHERDPD.
var haveAVX512 = haveAVX && cpuHasAVX512()

// cpuHasAVX and cpuHasAVX512 are implemented in axpy_amd64.s.
func cpuHasAVX() bool
func cpuHasAVX512() bool

// gemmTile4AVX is tile4's AVX form. A 4×16 block of the tile (with
// AVX-512F, in eight ZMM registers) or a 4×8 block (eight YMM) stays in
// registers across the whole p loop; each step broadcasts the four a
// values, loads a row of b values and issues a separate multiply and add
// per register (no FMA: each lane performs exactly the scalar
// round-to-nearest multiply then add, so results are bit-identical).
// Columns left over run as one 4×4 block and then single columns, the
// same way.
//
//go:noescape
func gemmTile4AVX(c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, k, n int)

// gemmRow1AVX is row1's AVX form: tile4's kernel for one row, the
// row's cells sixteen (two ZMM) or eight (two YMM) at a time across the
// p loop.
//
//go:noescape
func gemmRow1AVX(c *float64, a *float64, aps int, b *float64, ldb, k, n int)

// gatherAVX512 is Gather's AVX-512F kernel over the first n cells, n a
// positive multiple of 8 and srcLen at least 1: it stops in front of
// the first block of eight holding an index outside src and returns the
// cells it gathered.
//
//go:noescape
func gatherAVX512(dst, src *float64, srcLen int, idx *int32, n int) int

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
