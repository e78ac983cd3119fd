//go:build !amd64

package tensor

// withoutAVX and withoutAVX512 run fn: the portable loops are the only
// kernels here.
func withoutAVX(fn func())    { fn() }
func withoutAVX512(fn func()) { fn() }
