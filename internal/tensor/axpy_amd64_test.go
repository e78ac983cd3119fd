//go:build amd64

package tensor

// withoutAVX runs fn with the vector kernels switched off, as on a
// machine whose CPUID check failed. Not for parallel tests: the pool's
// goroutines read the same variable.
func withoutAVX(fn func()) {
	defer func(v bool) { haveAVX = v }(haveAVX)
	haveAVX = false
	fn()
}
