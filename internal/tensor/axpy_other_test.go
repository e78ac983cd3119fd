//go:build !amd64

package tensor

// withoutAVX runs fn: the portable loops are the only kernels here.
func withoutAVX(fn func()) { fn() }
