//go:build amd64

package tensor

// withoutAVX runs fn with the vector kernels switched off, as on a
// machine whose CPUID check failed. Not for parallel tests: the pool's
// goroutines read the same variables.
func withoutAVX(fn func()) {
	defer func(v, v512 bool) { haveAVX, haveAVX512 = v, v512 }(haveAVX, haveAVX512)
	haveAVX, haveAVX512 = false, false
	fn()
}

// withoutAVX512 runs fn with only the AVX-512 paths switched off, as on
// an AVX2 machine: the tile kernels' 16-column blocks and Gather's
// VGATHERDPD.
func withoutAVX512(fn func()) {
	defer func(v bool) { haveAVX512 = v }(haveAVX512)
	haveAVX512 = false
	fn()
}
