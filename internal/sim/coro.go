//go:build go1.23

package sim

import "iter"

// newCoro returns the resume function of a runtime coroutine running
// body. The build constraint raises only this file's language version
// to one with package iter: go.mod stays at go 1.21 because the
// benchmark module, itself at go 1.21, requires this one.
func newCoro(body func(yield func(struct{}) bool)) func() (struct{}, bool) {
	resume, _ := iter.Pull(body)
	return resume
}
