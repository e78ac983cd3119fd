package model

import (
	"math/rand"
	"testing"
)

func TestCNNTrainerLearns(t *testing.T) {
	cfg := DefaultCNNConfig()
	c := NewCNN(cfg)
	rng := rand.New(rand.NewSource(10))
	before := c.EvalLoss()
	for i := 0; i < 250; i++ {
		g, _ := c.ComputeGrad(rng)
		c.Apply(g)
	}
	after := c.EvalLoss()
	if after >= before {
		t.Errorf("CNN eval loss did not improve: %g -> %g", before, after)
	}
	if acc := c.EvalAccuracy(); acc < 0.5 {
		t.Errorf("CNN eval accuracy %g, want >= 0.5", acc)
	}
}

func TestSVMTrainerLearns(t *testing.T) {
	cfg := DefaultSVMConfig()
	s := NewSVM(cfg)
	rng := rand.New(rand.NewSource(11))
	before := s.EvalLoss()
	for i := 0; i < 400; i++ {
		g, _ := s.ComputeGrad(rng)
		s.Apply(g)
	}
	after := s.EvalLoss()
	if after >= before {
		t.Errorf("SVM eval loss did not improve: %g -> %g", before, after)
	}
	if acc := s.EvalAccuracy(); acc < 0.7 {
		t.Errorf("SVM eval accuracy %g, want >= 0.7", acc)
	}
}

func TestClonesStartIdenticalAndDiverge(t *testing.T) {
	for name, tr := range map[string]Trainer{
		"cnn": NewCNN(DefaultCNNConfig()),
		"svm": NewSVM(DefaultSVMConfig()),
	} {
		a := tr.Clone()
		b := tr.Clone()
		pa, pb := a.Params(), b.Params()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: clones start with different params", name)
			}
		}
		// Different RNGs → different batches → divergence.
		ga, _ := a.ComputeGrad(rand.New(rand.NewSource(1)))
		a.Apply(ga)
		gb, _ := b.ComputeGrad(rand.New(rand.NewSource(2)))
		b.Apply(gb)
		same := true
		for i := range pa {
			if pa[i] != pb[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: clones did not diverge under different batches", name)
		}
	}
}

func TestDeterministicGivenSameRNG(t *testing.T) {
	a := NewCNN(DefaultCNNConfig())
	b := NewCNN(DefaultCNNConfig())
	ra := rand.New(rand.NewSource(5))
	rb := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		ga, la := a.ComputeGrad(ra)
		gb, lb := b.ComputeGrad(rb)
		if la != lb {
			t.Fatalf("iteration %d: losses differ %g vs %g", i, la, lb)
		}
		for j := range ga {
			if ga[j] != gb[j] {
				t.Fatalf("iteration %d: grads differ at %d", i, j)
			}
		}
		a.Apply(ga)
		b.Apply(gb)
	}
}

func TestResetOptimizer(t *testing.T) {
	s := NewSVM(DefaultSVMConfig())
	rng := rand.New(rand.NewSource(6))
	g, _ := s.ComputeGrad(rng)
	s.Apply(g)
	s.ResetOptimizer() // must not panic and must clear momentum
	s.Apply(make([]float64, s.NumParams()))
}

func TestEvalLossPositive(t *testing.T) {
	if l := NewCNN(DefaultCNNConfig()).EvalLoss(); l <= 0 {
		t.Errorf("CNN eval loss %g", l)
	}
	if l := NewSVM(DefaultSVMConfig()).EvalLoss(); l <= 0 {
		t.Errorf("SVM eval loss %g", l)
	}
}

// TestComputeGradZeroSteadyStateAllocs pins the end-to-end zero-alloc
// contract of the per-iteration hot path (sample + forward + backward)
// for both workloads: after warm-up, an iteration must not allocate.
func TestComputeGradZeroSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		trainer Trainer
	}{
		{"cnn", NewCNN(DefaultCNNConfig())},
		{"svm", NewSVM(DefaultSVMConfig())},
	} {
		rng := rand.New(rand.NewSource(3))
		tc.trainer.ComputeGrad(rng) // warm-up: grow retained batch + scratch
		allocs := testing.AllocsPerRun(20, func() {
			tc.trainer.ComputeGrad(rng)
		})
		if allocs > 0 {
			t.Errorf("%s: ComputeGrad allocates %.1f objects/iter in steady state, want 0", tc.name, allocs)
		}
	}
}
