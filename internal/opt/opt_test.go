package opt

import (
	"math"
	"math/rand"
	"testing"
)

func TestPlainSGDStep(t *testing.T) {
	s := NewSGD(2, 0.1, 0, 0)
	p := []float64{1, 2}
	s.Step(p, []float64{10, -10})
	if math.Abs(p[0]-0) > 1e-12 || math.Abs(p[1]-3) > 1e-12 {
		t.Errorf("params %v, want [0 3]", p)
	}
}

func TestMomentumAccumulates(t *testing.T) {
	s := NewSGD(1, 1, 0.5, 0)
	p := []float64{0}
	s.Step(p, []float64{1}) // v=1, p=-1
	s.Step(p, []float64{1}) // v=1.5, p=-2.5
	if math.Abs(p[0]+2.5) > 1e-12 {
		t.Errorf("p = %v, want -2.5", p[0])
	}
}

func TestWeightDecayPullsTowardZero(t *testing.T) {
	s := NewSGD(1, 0.1, 0, 0.5)
	p := []float64{10}
	s.Step(p, []float64{0})
	if math.Abs(p[0]-9.5) > 1e-12 {
		t.Errorf("p = %v, want 9.5", p[0])
	}
}

func TestResetClearsVelocity(t *testing.T) {
	s := NewSGD(1, 1, 0.9, 0)
	p := []float64{0}
	s.Step(p, []float64{1})
	s.Reset()
	p[0] = 0
	s.Step(p, []float64{1})
	if math.Abs(p[0]+1) > 1e-12 {
		t.Errorf("after reset p = %v, want -1", p[0])
	}
}

func TestCloneFreshState(t *testing.T) {
	s := NewSGD(1, 1, 0.9, 0)
	p := []float64{0}
	s.Step(p, []float64{1})
	c := s.Clone()
	p2 := []float64{0}
	c.Step(p2, []float64{1})
	if math.Abs(p2[0]+1) > 1e-12 {
		t.Errorf("clone inherited momentum: p = %v", p2[0])
	}
	if c.LR != s.LR || c.Momentum != s.Momentum || c.WeightDecay != s.WeightDecay {
		t.Error("clone hyper-parameters differ")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for lr<=0")
		}
	}()
	NewSGD(1, 0, 0.9, 0)
}

func TestLengthMismatchPanics(t *testing.T) {
	s := NewSGD(2, 0.1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched lengths")
		}
	}()
	s.Step([]float64{1}, []float64{1})
}

// refStep is Step's loop as first written, one expression per element
// with every operand read where it is used — the reference Step is
// pinned to.
func refStep(s *SGD, params, grads []float64) {
	for i := range params {
		v := s.Momentum*s.velocity[i] + grads[i] + s.WeightDecay*params[i]
		s.velocity[i] = v
		params[i] -= s.LR * v
	}
}

// TestStepMatchesReference: 1 000 steps leave parameters and velocity
// bit for bit where the reference loop leaves them, at the SVM's
// hyper-parameters and with momentum and decay off.
func TestStepMatchesReference(t *testing.T) {
	const n = 257
	for _, c := range []struct{ lr, momentum, decay float64 }{{0.2, 0.9, 1e-7}, {0.05, 0, 0}} {
		got, want := NewSGD(n, c.lr, c.momentum, c.decay), NewSGD(n, c.lr, c.momentum, c.decay)
		rng := rand.New(rand.NewSource(1))
		p, q, g := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range p {
			p[i] = rng.NormFloat64()
			q[i] = p[i]
		}
		for step := 0; step < 1000; step++ {
			for i := range g {
				g[i] = rng.NormFloat64()
			}
			got.Step(p, g)
			refStep(want, q, g)
		}
		for i := range p {
			if math.Float64bits(p[i]) != math.Float64bits(q[i]) || math.Float64bits(got.velocity[i]) != math.Float64bits(want.velocity[i]) {
				t.Fatalf("lr %g momentum %g decay %g, element %d: param %v velocity %v, reference %v %v", c.lr, c.momentum, c.decay, i, p[i], got.velocity[i], q[i], want.velocity[i])
			}
		}
	}
}
