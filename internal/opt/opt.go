// Package opt implements the optimizer used by every training run in
// the paper: mini-batch SGD with momentum and L2 weight decay
// (momentum 0.9; weight decay 1e-4 for the CNN, 1e-7 for the SVM;
// constant learning rate, §7.2).
package opt

import (
	"fmt"

	"hop/internal/tensor"
)

// SGD holds the optimizer hyper-parameters and per-replica momentum
// state. Each worker owns one SGD instance for its model replica.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity []float64
}

// NewSGD returns an SGD optimizer for a parameter vector of length n.
func NewSGD(n int, lr, momentum, weightDecay float64) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("opt: non-positive learning rate %g", lr))
	}
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: make([]float64, n)}
}

// Step applies one update in place: v ← m·v + g + wd·x; x ← x − lr·v
// (tensor.MomentumStep, a lane per element where the CPU has AVX).
func (s *SGD) Step(params, grads []float64) {
	if len(params) != len(grads) || len(params) != len(s.velocity) {
		panic(fmt.Sprintf("opt: Step length mismatch params=%d grads=%d velocity=%d", len(params), len(grads), len(s.velocity)))
	}
	tensor.MomentumStep(params, s.velocity, grads, s.Momentum, s.WeightDecay, s.LR)
}

// Reset zeroes the momentum state (used when a worker's parameters are
// replaced wholesale, e.g. after a skip-iterations jump).
func (s *SGD) Reset() {
	for i := range s.velocity {
		s.velocity[i] = 0
	}
}

// Clone returns an optimizer with the same hyper-parameters and fresh
// (zero) momentum state.
func (s *SGD) Clone() *SGD {
	return NewSGD(len(s.velocity), s.LR, s.Momentum, s.WeightDecay)
}
