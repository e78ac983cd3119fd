package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hop"
)

// tinySpec is a 4-worker, 5-iteration quadratic run: small enough for
// tier-1, the same code path as the committed workloads.
func tinySpec() hop.Scenario {
	return hop.Scenario{
		Name:     "tiny",
		Workload: "quadratic",
		Topology: hop.ScenarioTopology{Kind: "ring", Workers: 4, Machines: 1},
		Protocol: hop.ScenarioProtocol{MaxIG: 3},
		MaxIter:  5,
		// Five iterations converge nowhere; the loss checks still run.
		TargetLoss: 100,
		Seed:       7,
	}
}

func TestDecoratorCloneIsDecorated(t *testing.T) {
	tr := NewTracer(4)
	proto := tr.Prototype(hop.NewQuadratic([]float64{5, 5}, []float64{1, 2}, 0.2, 0))
	rng := rand.New(rand.NewSource(1))
	proto.ComputeGrad(rng) // the prototype itself records nothing
	for want := 0; want < 3; want++ {
		clone := proto.Clone()
		c, ok := clone.(*tracedTrainer)
		if !ok {
			t.Fatalf("clone %d is a %T, not a decorated trainer", want, clone)
		}
		if c.worker != want || c.tr != tr {
			t.Fatalf("clone %d registered as worker %d", want, c.worker)
		}
		g, _ := c.ComputeGrad(rng)
		c.Apply(g)
		if len(c.iters) != 1 || c.iters[0].applyEnd < c.iters[0].gradEnd {
			t.Fatalf("clone %d recorded %+v", want, c.iters)
		}
	}
	if grand, ok := tr.trainers[0].Clone().(*tracedTrainer); !ok || grand.worker != 3 {
		t.Fatal("clone of a clone lost its decorator")
	}
	if n := tr.Summary().Iters; n != 3 {
		t.Fatalf("summary counts %d iterations, want 3 (prototype calls must not record)", n)
	}
}

// checkSpans asserts the structure the trace file promises: one iter
// span per worker-iteration under the run, trainer spans nested in
// their iter, and iter = children + self.
func checkSpans(t *testing.T, tr *Tracer, workers, iters int, serial bool) {
	t.Helper()
	if len(tr.trainers) != workers {
		t.Fatalf("%d decorated trainers, want %d", len(tr.trainers), workers)
	}
	var sumIter, sumChildren int64
	seen := map[int]bool{}
	for _, tt := range tr.trainers {
		seen[tt.worker] = true
		if len(tt.iters) != iters {
			t.Fatalf("worker %d recorded %d iterations, want %d", tt.worker, len(tt.iters), iters)
		}
		for i, it := range tt.iters {
			end := tt.end(i)
			if it.start < tr.runStart || end > tr.runEnd {
				t.Errorf("worker %d iter %d [%d,%d] outside run [%d,%d]", tt.worker, i, it.start, end, tr.runStart, tr.runEnd)
			}
			if !(it.start <= it.gradEnd && it.gradEnd <= it.applyStart && it.applyStart <= it.applyEnd && it.applyEnd <= end) {
				t.Errorf("worker %d iter %d children not nested in order: %+v end %d", tt.worker, i, it, end)
			}
			if it.evalEnd != 0 && !(it.applyEnd <= it.evalStart && it.evalEnd <= end) {
				t.Errorf("worker %d iter %d eval span outside its iteration: %+v end %d", tt.worker, i, it, end)
			}
			if i > 0 && tt.end(i-1) != it.start {
				t.Errorf("worker %d iter %d does not start where iter %d ends", tt.worker, i, i-1)
			}
			sumIter += end - it.start
			sumChildren += (it.gradEnd - it.start) + (it.applyEnd - it.applyStart) + (it.evalEnd - it.evalStart)
		}
	}
	if len(seen) != workers {
		t.Fatalf("worker ids %v, want %d distinct", seen, workers)
	}
	s := tr.Summary()
	if s.Iters != int64(workers*iters) || s.IterNs != sumIter {
		t.Fatalf("summary %+v, want %d iterations lasting %d ns", s, workers*iters, sumIter)
	}
	// Summary nets the clock reading out of each child, so its self
	// time is at least the raw one and the parts still sum to the whole.
	if self := s.SelfNs(); self < sumIter-sumChildren || s.GradNs+s.ApplyNs+s.EvalNs+self != s.IterNs {
		t.Fatalf("iter %d != children %d + self %d", s.IterNs, s.GradNs+s.ApplyNs+s.EvalNs, self)
	}
	// The simulator runs one worker at a time, so there the trainer
	// spans fit inside the run and the rest is the engine's self time.
	if serial && s.RunNs < s.GradNs+s.ApplyNs+s.EvalNs {
		t.Fatalf("run span %d shorter than the trainer spans inside it", s.RunNs)
	}
}

func TestSpansNestAndSumOnBothPlanes(t *testing.T) {
	spec := tinySpec()
	for _, live := range []bool{false, true} {
		tr := NewTracer(spec.MaxIter)
		rep := &RunReport{}
		if live {
			runLive(rep, Workload{Name: "tiny", Live: true, Deterministic: true}, spec, tr)
		} else {
			runSim(rep, spec, tr)
		}
		if rep.Failed() {
			t.Fatalf("live=%v: run failed: %s %v", live, rep.Err, rep.Checks)
		}
		if rep.Steps != 20 || rep.Attempted != 20 {
			t.Fatalf("live=%v: %d of %d steps", live, rep.Steps, rep.Attempted)
		}
		checkSpans(t, tr, 4, spec.MaxIter, !live)

		path := filepath.Join(t.TempDir(), "tiny.trace.json")
		if err := tr.WriteFile(path, "tiny"); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Names      []string  `json:"names"`
			Columns    []string  `json:"columns"`
			TotalIters int       `json:"total_iters"`
			Spans      [][]int64 `json:"spans"`
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("trace file is not JSON: %v", err)
		}
		if file.TotalIters != 20 || len(file.Columns) != 7 {
			t.Fatalf("trace file header: %d iters, columns %v", file.TotalIters, file.Columns)
		}
		byID := map[int64][]int64{}
		iterSpans := 0
		for _, s := range file.Spans {
			byID[s[0]] = s
		}
		for _, s := range file.Spans {
			id, parent, name := s[0], s[1], s[2]
			if name == spanRun {
				if parent != -1 {
					t.Fatalf("run span has parent %d", parent)
				}
				continue
			}
			p, ok := byID[parent]
			if !ok || s[5] < p[5] || s[6] > p[6] {
				t.Fatalf("span %d [%d,%d] not inside its parent %v", id, s[5], s[6], p)
			}
			if name == spanIter {
				iterSpans++
				if p[2] != spanRun {
					t.Fatalf("iter span %d hangs under %q", id, file.Names[p[2]])
				}
			} else if p[2] != spanIter {
				t.Fatalf("%s span %d hangs under %q", file.Names[name], id, file.Names[p[2]])
			}
		}
		if iterSpans != 20 {
			t.Fatalf("trace file spells out %d iter spans, want 20", iterSpans)
		}
	}
}

// The decorator only watches: a traced simulated run must agree with an
// untraced one on every output that repeats exactly.
func TestDecoratorChangesNoSimulatedStatistic(t *testing.T) {
	spec := tinySpec()
	spec.Hetero = hop.ScenarioHetero{Kind: "random", Factor: 6, Prob: 0.25}
	spec.Protocol = hop.ScenarioProtocol{MaxIG: 4, Backup: 1, SendCheck: true}
	spec.MaxIter = 30
	plain, traced := &RunReport{}, &RunReport{}
	runSim(plain, spec, nil)
	runSim(traced, spec, NewTracer(spec.MaxIter))
	if plain.Failed() || traced.Failed() {
		t.Fatalf("runs failed: %v %v / %v %v", plain.Err, plain.Checks, traced.Err, traced.Checks)
	}
	if plain.Fingerprint == "" || plain.Fingerprint != traced.Fingerprint {
		t.Fatalf("traced run diverged:\n untraced %s\n traced   %s", plain.Fingerprint, traced.Fingerprint)
	}
	if plain.VirtIterMs != traced.VirtIterMs || plain.VirtTimeToTargetS != traced.VirtTimeToTargetS {
		t.Fatalf("virtual metrics moved: %v/%v vs %v/%v", plain.VirtIterMs, plain.VirtTimeToTargetS, traced.VirtIterMs, traced.VirtTimeToTargetS)
	}
}

// nopTrainer isolates the decorator's own cost.
type nopTrainer struct{ p []float64 }

func (n *nopTrainer) Params() []float64                           { return n.p }
func (n *nopTrainer) ComputeGrad(*rand.Rand) ([]float64, float64) { return n.p, 0 }
func (n *nopTrainer) Apply([]float64)                             {}
func (n *nopTrainer) ResetOptimizer()                             {}
func (n *nopTrainer) EvalLoss() float64                           { return 0 }
func (n *nopTrainer) Clone() hop.Trainer                          { return &nopTrainer{p: n.p} }

// trace.overhead_pct on live-ring4-svm-none is the decorator's
// bookkeeping per iteration over that workload's iteration time. The
// full runs are too long for tier-1; the bookkeeping is not: it must
// stay under 3 % of the workload's ~170 µs iteration.
func TestDecoratorOverheadUnderThreePercentOfALiveIteration(t *testing.T) {
	const (
		iters         = 200000
		liveIteration = 170 * time.Microsecond
	)
	loop := func(tt hop.Trainer) time.Duration {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			g, _ := tt.ComputeGrad(nil)
			tt.Apply(g)
		}
		return time.Since(t0)
	}
	bare := loop(&nopTrainer{})
	tr := NewTracer(iters)
	tr.Start()
	decorated := loop(tr.Worker(&nopTrainer{}, 0))
	tr.Stop()
	perIter := (decorated - bare) / iters
	if limit := liveIteration * 3 / 100; perIter > limit {
		t.Fatalf("decorator costs %v per iteration, over 3%% of a %v live iteration (%v)", perIter, liveIteration, limit)
	}
	t.Logf("decorator bookkeeping: %v per iteration", perIter)
}
