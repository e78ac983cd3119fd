package cluster

// offload_test.go — the start/join contract of the compute hatch on
// the simulator (DESIGN.md §3.2): expensive gradient steps run as
// whole-step tasks on the tensor pool, cheap ones stay inline, no step
// outlives Run, and none of it is visible in what the run decides.

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/hetero"
	"hop/internal/leaktest"
	"hop/internal/model"
	"hop/internal/tensor"
)

// cnnOptions is an 8-worker heterogeneous CNN cluster: every gradient
// step is a millisecond of GEMMs, far above tensor.StepOffloadMin.
func cnnOptions(maxIter int) Options {
	g := graph.RingBased(8)
	opts := baseOptions(g, maxIter)
	opts.Trainer = model.NewCNN(model.DefaultCNNConfig())
	opts.Compute = hetero.Compute{Base: 4 * time.Second, Slow: hetero.Random{Fact: 6, Prob: 1.0 / 8}}
	opts.Core.MaxIG = 4
	opts.Core.Backup = 1
	opts.EvalEvery = 2
	return opts
}

// countedTrainer counts gradient steps begun and ended across all its
// clones, and stretches each step in host time so that a step started
// shortly before Run returns is still running when it does.
type countedTrainer struct {
	model.Trainer
	begun, ended *atomic.Int64
}

func (c countedTrainer) ComputeGrad(rng *rand.Rand) ([]float64, float64) {
	c.begun.Add(1)
	defer c.ended.Add(1)
	time.Sleep(2 * time.Millisecond)
	return c.Trainer.ComputeGrad(rng)
}

func (c countedTrainer) Clone() model.Trainer {
	return countedTrainer{c.Trainer.Clone(), c.begun, c.ended}
}

// TestDeadlineDrainsOutstandingSteps cuts the run in the middle of the
// compute overlap — every worker has a step on the pool and is asleep
// until start+d when the deadline kills it — and evaluates every
// returned trainer at once. Without the drain in Run the pool is still
// inside those trainers' ComputeGrad, on the scratch EvalLoss uses.
func TestDeadlineDrainsOutstandingSteps(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(4)
	opts := cnnOptions(0)
	var begun, ended atomic.Int64
	opts.Trainer = countedTrainer{opts.Trainer, &begun, &ended}
	opts.Deadline = 10 * time.Second // iterations take ≥ 4 s: mid-third
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsOffloaded == 0 {
		t.Fatal("no CNN step was offloaded; the test exercises nothing")
	}
	// Every worker's first step ran inline (timed), every later one was
	// offloaded; all of them must be over, none still queued.
	want := int64(len(res.Trainers) + res.StepsOffloaded)
	if b, e := begun.Load(), ended.Load(); b != want || e != want {
		t.Fatalf("Run returned with gradient steps outstanding: %d started, %d begun, %d ended", want, b, e)
	}
	for w, tr := range res.Trainers {
		if l := tr.EvalLoss(); math.IsNaN(l) || l <= 0 {
			t.Errorf("worker %d: eval loss %v after a deadline cut", w, l)
		}
	}
}

// TestOffloadInvisibleAcrossCrashRestart runs a crash/restart cycle on
// the CNN at width 1 (every step inline, on the scheduler's goroutine)
// and at width 4 (steps on the pool, the restarted worker's first step
// timed afresh) and requires identical decision traces, membership
// included, identical virtual duration and bit-identical parameters.
func TestOffloadInvisibleAcrossCrashRestart(t *testing.T) {
	defer tensor.SetWorkers(0)
	type outcome struct {
		traces   []string
		members  string // worker 3's crash/rejoin record
		duration time.Duration
		params   [][]float64
	}
	run := func(width int) outcome {
		tensor.SetWorkers(width)
		opts := cnnOptions(12)
		n := opts.Core.Graph.N()
		opts.Core.FaultTolerance = true
		opts.Core.Faults = make([]core.FaultSchedule, n)
		opts.Core.Faults[3] = core.FaultSchedule{CrashIter: 4, RestartAfter: 9 * time.Second}
		opts.Core.Tracers = make([]*core.Trace, n)
		for i := range opts.Core.Tracers {
			opts.Core.Tracers[i] = core.NewTrace()
		}
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if res.Deadlock != nil {
			t.Fatalf("width %d: %v", width, res.Deadlock)
		}
		if width > 1 && res.StepsOffloaded == 0 {
			t.Fatalf("width %d: no step was offloaded", width)
		}
		out := outcome{duration: res.Duration, members: opts.Core.Tracers[3].MembershipString()}
		for i, tr := range opts.Core.Tracers {
			out.traces = append(out.traces, tr.String())
			out.params = append(out.params, res.Trainers[i].Params())
		}
		return out
	}
	seq, par := run(1), run(4)
	if seq.duration != par.duration {
		t.Errorf("virtual duration %v at width 1, %v at width 4", seq.duration, par.duration)
	}
	for w := range seq.traces {
		if seq.traces[w] != par.traces[w] {
			t.Errorf("worker %d trace differs between widths:\n 1: %s\n 4: %s", w, seq.traces[w], par.traces[w])
		}
		for i, v := range seq.params[w] {
			if math.Float64bits(v) != math.Float64bits(par.params[w][i]) {
				t.Fatalf("worker %d param %d: %v at width 1, %v at width 4", w, i, v, par.params[w][i])
			}
		}
	}
	if got := seq.members; got != "X@4 B@9" {
		t.Errorf("worker 3 membership %q, want crash at 4, rejoin at 9", got)
	}
}

// TestCheapStepsStayInline: a toy gradient is orders of magnitude
// under tensor.StepOffloadMin, so the timed first step must keep every
// worker off the pool. The bound tolerates a first step that was
// descheduled mid-measurement; the selection only ever moves host time.
func TestCheapStepsStayInline(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(4)
	const n, iters = 64, 20
	opts := baseOptions(graph.Ring(n), iters)
	opts.Trainer = quadTrainer(4)
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsOffloaded > n*iters/20 {
		t.Errorf("%d of %d toy steps were offloaded", res.StepsOffloaded, n*iters)
	}
}

// TestRunLeavesNoGoroutines: whatever Run started — sim processes,
// outstanding steps — is gone when it returns, except the persistent
// compute pool, which is at most Workers()−1 goroutines.
func TestRunLeavesNoGoroutines(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(3)
	// The pool may grow by up to two goroutines during the run.
	defer leaktest.Check(t, 2)()
	opts := cnnOptions(0)
	opts.Deadline = 10 * time.Second
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
}
