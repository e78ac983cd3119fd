package ps

import (
	"testing"
	"time"

	"hop/internal/hetero"
	"hop/internal/model"
)

func quad(dim int) model.Trainer {
	start := make([]float64, dim)
	target := make([]float64, dim)
	for i := range start {
		start[i] = 4
		target[i] = 1
	}
	return model.NewQuadratic(start, target, 0.3, 0.02)
}

func TestBSPConverges(t *testing.T) {
	res, err := Run(Options{
		Workers: 4, Trainer: quad(5),
		Compute: hetero.Compute{Base: 50 * time.Millisecond},
		MaxIter: 40, Seed: 1, PayloadBytes: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss := res.Server.EvalLoss(); loss > 0.1 {
		t.Errorf("server loss %g after 40 BSP rounds", loss)
	}
	if res.Metrics.Iterations() != 160 {
		t.Errorf("iterations %d, want 4*40", res.Metrics.Iterations())
	}
}

func TestBSPWorkersLockstep(t *testing.T) {
	res, err := Run(Options{
		Workers: 4, Trainer: quad(3),
		Compute: hetero.Compute{Base: 50 * time.Millisecond,
			Slow: hetero.Deterministic{Factors: map[int]float64{2: 5}}},
		MaxIter: 10, Seed: 2, PayloadBytes: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every worker completes exactly MaxIter rounds: BSP lockstep.
	for w := 0; w < 4; w++ {
		if got := res.Metrics.WorkerIterations(w); got != 10 {
			t.Errorf("worker %d did %d rounds, want 10", w, got)
		}
	}
	// The straggler gates everyone: mean iteration time ≈ straggler's.
	mean := res.Metrics.MeanIterDurationAll(1)
	if mean < 200*time.Millisecond {
		t.Errorf("BSP mean iteration %v; straggler should gate it to ≥ 250ms-ish", mean)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("empty options should fail")
	}
	if _, err := Run(Options{Workers: 2}); err == nil {
		t.Error("missing trainer should fail")
	}
	if _, err := Run(Options{Workers: 2, Trainer: quad(2)}); err == nil {
		t.Error("missing termination should fail")
	}
}
