package cluster

import (
	"math"
	"strings"
	"testing"
	"time"

	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/hetero"
	"hop/internal/model"
	"hop/internal/tensor"
)

// frozenTrainers gives worker i the parameter vector [i], so averaging
// behaviour is directly observable.
func frozenTrainers(n int) []model.Trainer {
	ts := make([]model.Trainer, n)
	for i := 0; i < n; i++ {
		ts[i] = model.NewFrozen([]float64{float64(i)})
	}
	return ts
}

func quadTrainer(dim int) model.Trainer {
	start := make([]float64, dim)
	target := make([]float64, dim)
	for i := range target {
		start[i] = 5
		target[i] = float64(i % 3)
	}
	return model.NewQuadratic(start, target, 0.2, 0.05)
}

func baseOptions(g *graph.Graph, maxIter int) Options {
	return Options{
		Core: core.Config{
			Graph:   g,
			MaxIter: maxIter,
			Seed:    42,
		},
		Compute:      hetero.Compute{Base: 100 * time.Millisecond},
		PayloadBytes: 1 << 16,
		Seed:         7,
	}
}

// TestConsensusAndMeanPreservation: with zero gradients on a regular
// graph, decentralized averaging must preserve the global mean and
// drive every replica toward it.
func TestConsensusAndMeanPreservation(t *testing.T) {
	for _, gb := range []*graph.Graph{graph.Ring(8), graph.RingBased(8), graph.Complete(6)} {
		n := gb.N()
		opts := baseOptions(gb, 30)
		opts.Trainers = frozenTrainers(n)
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", gb.Name, err)
		}
		if res.Deadlock != nil {
			t.Fatalf("%s: deadlock: %v", gb.Name, res.Deadlock)
		}
		wantMean := float64(n-1) / 2
		sum := 0.0
		for i := 0; i < n; i++ {
			v := opts.Trainers[i].Params()[0]
			sum += v
			if math.Abs(v-wantMean) > 0.05 {
				t.Errorf("%s: worker %d at %.4f, want ≈%.2f (consensus)", gb.Name, i, v, wantMean)
			}
		}
		if math.Abs(sum/float64(n)-wantMean) > 1e-9 {
			t.Errorf("%s: mean drifted to %.6f, want %.6f", gb.Name, sum/float64(n), wantMean)
		}
	}
}

// TestTheorem1GapBound: without token queues, the observed gap between
// adjacent workers must respect length(Path j→i) when one worker is
// slowed deterministically (every other pair then does too,
// core.TestBoundsComposeAlongPaths).
func TestTheorem1GapBound(t *testing.T) {
	g := graph.Ring(8)
	opts := baseOptions(g, 40)
	opts.Trainers = frozenTrainers(8)
	opts.Compute.Slow = hetero.Deterministic{Factors: map[int]float64{0: 8}}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	bounds := core.NewBounds(opts.Core)
	for i := 0; i < 8; i++ {
		for _, j := range g.Neighbors(i) {
			if got, bound := res.Engine.Gaps().MaxGap(i, j), bounds.Gap(i, j); got > bound {
				t.Errorf("gap(%d,%d) = %d exceeds Theorem 1 bound %d", i, j, got, bound)
			}
		}
	}
	// The straggler's neighbors must actually have run ahead (gap > 0).
	if res.Engine.Gaps().MaxGap(1, 0) < 1 {
		t.Error("expected some gap over the straggler")
	}
}

// TestTheorem2TokenBound: token queues must clamp the adjacent gap at
// MaxIG even under extreme slowdown, and token counts must respect the
// Theorem 2 capacity bound.
func TestTheorem2TokenBound(t *testing.T) {
	g := graph.RingBased(8)
	const maxIG = 3
	opts := baseOptions(g, 40)
	opts.Trainers = frozenTrainers(8)
	opts.Core.MaxIG = maxIG
	opts.Compute.Slow = hetero.Deterministic{Factors: map[int]float64{0: 50}}
	opts.Deadline = 2 * time.Hour
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	bounds := core.NewBounds(opts.Core)
	for i := 0; i < 8; i++ {
		for _, j := range g.Neighbors(i) {
			if got, bound := res.Engine.Gaps().MaxGap(i, j), bounds.Gap(i, j); got > bound {
				t.Errorf("gap(%d,%d) = %d exceeds Table 1 bound %d", i, j, got, bound)
			}
			if _, high, ok := res.Engine.Worker(j).Tokens(i); ok {
				if cap := bounds.TokenCapacity(i, j); high > cap {
					t.Errorf("TokenQ(%d→%d) high water %d exceeds Theorem 2 capacity %d", i, j, high, cap)
				}
			}
		}
		if hw, cap := res.Engine.Worker(i).Queue().HighWater(), bounds.UpdateQueueCapacity(i, g); hw > cap {
			t.Errorf("UpdateQ(%d) high water %d exceeds §4.2 capacity %d", i, hw, cap)
		}
	}
}

// TestBackupWorkersAdvancePastStraggler: the defining §4.3 behaviour.
// With worker 0 effectively frozen, standard training lets neighbors
// run only 1 iteration ahead; backup workers let them run to the token
// limit.
func TestBackupWorkersAdvancePastStraggler(t *testing.T) {
	g := graph.Ring(8)
	const maxIG = 6

	run := func(backup int) []int {
		opts := baseOptions(g, 0)
		opts.Deadline = 100 * time.Second // straggler needs ~800s/iter
		opts.Trainers = frozenTrainers(8)
		opts.Core.MaxIG = maxIG
		opts.Core.Backup = backup
		opts.Core.SendCheck = backup > 0
		opts.Compute.Slow = hetero.Deterministic{Factors: map[int]float64{0: 8000}}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Engine.Gaps().Snapshot()
	}

	std := run(0)
	bak := run(1)
	// Worker 0 is stuck in iteration 0 in both runs.
	if std[0] != 0 || bak[0] != 0 {
		t.Fatalf("straggler advanced: std=%d bak=%d", std[0], bak[0])
	}
	// Standard: worker 1 needs u_{0→1}(k) every iteration → stuck at 1.
	if std[1] != 1 {
		t.Errorf("standard neighbor at %d, want 1 (Theorem 1 adjacent bound)", std[1])
	}
	// Backup: worker 1 ignores worker 0 and advances to the token
	// limit max_ig.
	if bak[1] != maxIG {
		t.Errorf("backup neighbor at %d, want token limit %d", bak[1], maxIG)
	}
	if bak[4] <= std[4] {
		t.Errorf("backup made no global progress: %v vs %v", bak, std)
	}
}

// TestBoundedStalenessAdvancePastStraggler: §4.4 behaviour — neighbors
// may run s+1 ahead of a frozen worker using its old updates.
func TestBoundedStalenessAdvancePastStraggler(t *testing.T) {
	g := graph.Ring(8)
	const s = 4
	opts := baseOptions(g, 0)
	opts.Deadline = 100 * time.Second
	opts.Trainers = frozenTrainers(8)
	opts.Core.Staleness = s
	opts.Core.MaxIG = 10 // loose token bound, staleness binds first
	opts.Compute.Slow = hetero.Deterministic{Factors: map[int]float64{0: 8000}}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	iters := res.Engine.Gaps().Snapshot()
	if iters[0] != 0 {
		t.Fatalf("straggler advanced to %d", iters[0])
	}
	// Neighbor of the straggler can reach iteration s+1 (executing
	// s+1 requires an update newer than iteration 0) but no further.
	if iters[1] != s+1 {
		t.Errorf("neighbor at %d, want s+1 = %d", iters[1], s+1)
	}
	bounds := core.NewBounds(opts.Core)
	for i := 0; i < 8; i++ {
		for _, j := range g.Neighbors(i) {
			if got, bound := res.Engine.Gaps().MaxGap(i, j), bounds.Gap(i, j); got > bound {
				t.Errorf("gap(%d,%d) = %d exceeds staleness bound %d", i, j, got, bound)
			}
		}
	}
}

// TestSkippingIterationsUnblocksStraggler: §5 — with skipping enabled,
// a deterministically slow worker jumps forward and the cluster
// completes far more iterations.
func TestSkippingIterationsUnblocksStraggler(t *testing.T) {
	g := graph.RingBased(8)
	run := func(maxJump int) (minIter int, jumps int) {
		opts := baseOptions(g, 0)
		opts.Deadline = 120 * time.Second
		opts.Trainers = frozenTrainers(8)
		opts.Core.MaxIG = 4
		opts.Core.Backup = 1
		opts.Core.SendCheck = true
		opts.Core.MaxJump = maxJump
		opts.Compute.Slow = hetero.Deterministic{Factors: map[int]float64{0: 6}}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		iters := res.Engine.Gaps().Snapshot()
		min := iters[0]
		for _, it := range iters {
			if it < min {
				min = it
			}
		}
		return min, res.Engine.Stats().Jumps
	}
	minNoSkip, jumps0 := run(0)
	if jumps0 != 0 {
		t.Errorf("no-skip run reported %d jumps", jumps0)
	}
	minSkip, jumps := run(10)
	if jumps == 0 {
		t.Error("skip run executed no jumps")
	}
	if minSkip <= minNoSkip {
		t.Errorf("skipping did not improve slowest worker progress: %d vs %d", minSkip, minNoSkip)
	}
}

// TestSkipJumpStopsAtMaxIter: the 6× straggler of a bounded skip run
// jumps by max_ig until its neighbours finish, then its last jump lands
// on MaxIter (8 → 10): the least lead is bounded by the neighbours'
// MaxIter. No jump passes MaxIter, the run ends without deadlock, and
// each worker's IterationsSkipped is the sum of next − k − 1 over its
// traced jumps.
func TestSkipJumpStopsAtMaxIter(t *testing.T) {
	const n, maxIter = 8, 10
	opts := baseOptions(graph.RingBased(n), maxIter)
	opts.Trainers = frozenTrainers(n)
	opts.Core.MaxIG = 4
	opts.Core.Backup = 1
	opts.Core.SendCheck = true
	opts.Core.MaxJump = 10
	opts.Compute.Slow = hetero.Deterministic{Factors: map[int]float64{0: 6}}
	opts.Tracers = make([]*core.Trace, n)
	for i := range opts.Tracers {
		opts.Tracers[i] = core.NewTrace()
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock != nil {
		t.Fatalf("deadlock: %v", res.Deadlock)
	}
	last := false
	for w, tr := range opts.Tracers {
		skipped := 0
		for _, e := range tr.Events() {
			if e.Kind != core.TraceJump {
				continue
			}
			if e.Iter > maxIter {
				t.Errorf("worker %d jumped %d -> %d, past MaxIter %d", w, e.From, e.Iter, maxIter)
			}
			last = last || e.Iter == maxIter && e.Iter-e.From < opts.Core.MaxIG
			skipped += e.Iter - e.From - 1
		}
		if got := res.Engine.Worker(w).Stats().IterationsSkipped; got != skipped {
			t.Errorf("worker %d: IterationsSkipped = %d, traced jumps skip %d", w, got, skipped)
		}
	}
	if !last {
		t.Error("no jump landed on MaxIter short of max_ig: the run lost its last-iterations case")
	}
}

// TestNotifyAckGapBound: NOTIFY-ACK keeps adjacent gaps within 2 in
// both directions (§3.3) and still converges.
func TestNotifyAckGapBound(t *testing.T) {
	g := graph.Ring(8)
	opts := baseOptions(g, 30)
	opts.Core.Mode = core.ModeNotifyAck
	opts.Trainers = frozenTrainers(8)
	opts.Compute.Slow = hetero.Random{Fact: 4, Prob: 0.2}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock != nil {
		t.Fatalf("deadlock: %v", res.Deadlock)
	}
	bounds := core.NewBounds(opts.Core)
	for i := 0; i < 8; i++ {
		for _, j := range g.Neighbors(i) {
			got, bound := res.Engine.Gaps().MaxGap(i, j), bounds.Gap(i, j)
			if got > bound {
				t.Errorf("gap(%d,%d) = %d exceeds NOTIFY-ACK bound %d", i, j, got, bound)
			}
		}
	}
	// Adjacent pairs specifically: |gap| ≤ 2.
	for i := 0; i < 8; i++ {
		for _, j := range g.In(i) {
			if res.Engine.Gaps().MaxGap(j, i) > 2 {
				t.Errorf("NOTIFY-ACK adjacent gap(%d,%d) = %d > 2", j, i, res.Engine.Gaps().MaxGap(j, i))
			}
		}
	}
}

// TestQuadraticConvergesAllModes: every protocol mode must actually
// optimize (quadratic toy reaches near-zero loss).
func TestQuadraticConvergesAllModes(t *testing.T) {
	g := graph.RingBased(8)
	cases := map[string]func(*Options){
		"standard-parallel": func(o *Options) {},
		"standard-serial":   func(o *Options) { o.Core.Serial = true },
		"tokens":            func(o *Options) { o.Core.MaxIG = 3 },
		"backup":            func(o *Options) { o.Core.MaxIG = 3; o.Core.Backup = 1; o.Core.SendCheck = true },
		"staleness":         func(o *Options) { o.Core.MaxIG = 6; o.Core.Staleness = 3 },
		"notify-ack":        func(o *Options) { o.Core.Mode = core.ModeNotifyAck },
		"skip": func(o *Options) {
			o.Core.MaxIG = 4
			o.Core.Backup = 1
			o.Core.MaxJump = 5
		},
	}
	for name, mut := range cases {
		opts := baseOptions(g, 60)
		opts.Trainer = quadTrainer(6)
		opts.Compute.Slow = hetero.Random{Fact: 3, Prob: 0.1}
		mut(&opts)
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Deadlock != nil {
			t.Fatalf("%s: deadlock %v", name, res.Deadlock)
		}
		for w := 0; w < g.N(); w++ {
			if loss := res.Trainers[w].EvalLoss(); loss > 0.5 {
				t.Errorf("%s: worker %d final loss %.4f, want < 0.5", name, w, loss)
			}
		}
		if res.Metrics.MinWorkerIterations() == 0 {
			t.Errorf("%s: some worker made no progress", name)
		}
	}
}

// TestDeterministicReplay: identical options produce bit-identical
// eval series and identical final parameters.
func TestDeterministicReplay(t *testing.T) {
	mk := func() *Result {
		opts := baseOptions(graph.RingBased(8), 40)
		opts.Trainer = quadTrainer(5)
		opts.Core.MaxIG = 3
		opts.Core.Backup = 1
		opts.Core.SendCheck = true
		opts.Compute.Slow = hetero.Random{Fact: 6, Prob: 1.0 / 8}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	pa, pb := a.Metrics.Eval.Points, b.Metrics.Eval.Points
	if len(pa) == 0 || len(pa) != len(pb) {
		t.Fatalf("eval lengths differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("eval point %d differs: %+v vs %+v", i, pa[i], pb[i])
		}
	}
	if a.Duration != b.Duration {
		t.Errorf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
}

// TestSendCheckSuppressesStaleSends: with a big straggler and backup
// workers, the §6.2(b) receiver-iteration check must fire.
func TestSendCheckSuppressesStaleSends(t *testing.T) {
	g := graph.Ring(8)
	opts := baseOptions(g, 0)
	opts.Deadline = 60 * time.Second
	opts.Trainers = frozenTrainers(8)
	opts.Core.MaxIG = 6
	opts.Core.Backup = 1
	opts.Core.SendCheck = true
	opts.Compute.Slow = hetero.Deterministic{Factors: map[int]float64{0: 40}}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Stats().SendsSuppressed == 0 {
		t.Error("expected suppressed sends from the straggler")
	}
}

// TestStaleDiscardHappens: without the send check, the straggler's
// late updates must be found and dropped at dequeue (§6.2(a)).
func TestStaleDiscardHappens(t *testing.T) {
	g := graph.Ring(8)
	opts := baseOptions(g, 0)
	opts.Deadline = 120 * time.Second
	opts.Trainers = frozenTrainers(8)
	opts.Core.MaxIG = 6
	opts.Core.Backup = 1
	opts.Compute.Slow = hetero.Deterministic{Factors: map[int]float64{0: 10}}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for w := 0; w < 8; w++ {
		total += res.Engine.Worker(w).Queue().StaleDiscarded()
	}
	if total == 0 {
		t.Error("expected stale updates to be discarded somewhere")
	}
	// The engine's aggregate must carry the queues' count (it read 0
	// while Protocol never fed Stats.StaleDiscarded).
	if got := res.Engine.Stats().StaleDiscarded; got != total {
		t.Errorf("Engine.Stats().StaleDiscarded = %d, queues counted %d", got, total)
	}
}

// TestDeadlineTermination: a run with no MaxIter stops at the
// deadline with partial progress recorded.
func TestDeadlineTermination(t *testing.T) {
	opts := baseOptions(graph.Ring(4), 0)
	opts.Trainers = frozenTrainers(4)
	opts.Deadline = 1 * time.Second // 100ms compute → ~9 iterations
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != time.Second {
		t.Errorf("duration %v, want 1s", res.Duration)
	}
	if res.Metrics.Iterations() == 0 {
		t.Error("no iterations before deadline")
	}
}

// TestMeanPreservedUnderBackup: backup-worker averaging is not doubly
// stochastic per step, but parameters must stay within the convex hull
// of initial values.
func TestMeanPreservedUnderBackup(t *testing.T) {
	g := graph.RingBased(8)
	opts := baseOptions(g, 0)
	opts.Deadline = 60 * time.Second
	opts.Trainers = frozenTrainers(8)
	opts.Core.MaxIG = 4
	opts.Core.Backup = 1
	opts.Core.SendCheck = true
	opts.Compute.Slow = hetero.Random{Fact: 6, Prob: 1.0 / 8}
	_, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 8; w++ {
		v := opts.Trainers[w].Params()[0]
		if v < 0 || v > 7 {
			t.Errorf("worker %d escaped the convex hull: %g", w, v)
		}
	}
}

// TestMissingConfigRejected covers the option validation paths.
func TestMissingConfigRejected(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("empty options should fail")
	}
	o := Options{Core: core.Config{Graph: graph.Ring(4)}}
	if _, err := Run(o); err == nil {
		t.Error("missing trainer should fail")
	}
	o.Trainer = model.NewFrozen([]float64{0})
	if _, err := Run(o); err == nil {
		t.Error("missing termination should fail")
	}
	// Each row breaks one per-worker length of otherwise valid options.
	valid := func() Options {
		o := baseOptions(graph.Ring(4), 1)
		o.Trainers = frozenTrainers(4)
		return o
	}
	if _, err := Run(valid()); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for _, c := range []struct {
		name, want string
		mut        func(*Options)
	}{
		{"wrong trainer count", "1 trainers for 4 workers", func(o *Options) { o.Trainers = o.Trainers[:1] }},
		{"wrong tracer count", "1 tracers for 4 workers", func(o *Options) { o.Tracers = make([]*core.Trace, 1) }},
	} {
		o := valid()
		c.mut(&o)
		if _, err := Run(o); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestFrozenMeanInvariantExact: on a regular graph with standard mode
// the mean is preserved to floating-point accuracy each step (doubly
// stochastic W), a stronger property than consensus.
func TestFrozenMeanInvariantExact(t *testing.T) {
	g := graph.DoubleRing(8)
	opts := baseOptions(g, 25)
	opts.Trainers = frozenTrainers(8)
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock != nil {
		t.Fatal(res.Deadlock)
	}
	sum := 0.0
	for w := 0; w < 8; w++ {
		sum += opts.Trainers[w].Params()[0]
	}
	if math.Abs(sum-28) > 1e-9 {
		t.Errorf("sum %v, want 28", sum)
	}
	// Consensus distance must have shrunk drastically.
	var maxDist float64
	for w := 0; w < 8; w++ {
		d := tensor.Dist2(opts.Trainers[w].Params(), []float64{3.5})
		if d > maxDist {
			maxDist = d
		}
	}
	if maxDist > 0.01 {
		t.Errorf("consensus distance %g after 25 rounds", maxDist)
	}
}
