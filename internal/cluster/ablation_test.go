package cluster

// Ablations for the design choices DESIGN.md calls out: the serial vs
// parallel computation graph trade-off (§3.2), NOTIFY-ACK's
// restrictiveness under heterogeneity (§3.3), and queue-capacity
// behaviour with and without token queues (§4.1-4.2).

import (
	"testing"
	"time"

	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/hetero"
)

// TestAblationSerialVsParallel: the parallel computation graph
// overlaps Compute with Recv, so when communication is non-trivial its
// iterations are strictly faster; the serial graph pays compute and
// communication sequentially (§3.2's execution-efficiency side).
func TestAblationSerialVsParallel(t *testing.T) {
	g := graph.RingBased(8)
	graph.EvenPlacement(g, 4) // cross-machine traffic makes Recv non-free
	run := func(serial bool) time.Duration {
		opts := baseOptions(g, 30)
		opts.Core.Serial = serial
		opts.Trainer = quadTrainer(4)
		opts.PayloadBytes = 16 << 20 // ~128ms per inter-machine message
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.MeanIterDurationAll(2)
	}
	serial := run(true)
	parallel := run(false)
	if parallel >= serial {
		t.Errorf("parallel iterations (%v) should beat serial (%v) when comm is non-trivial", parallel, serial)
	}
}

// TestAblationNotifyAckSlowerUnderHeterogeneity: NOTIFY-ACK's backward
// dependence (wait for ACKs before sending) makes it strictly more
// synchronized than queue-based standard mode, so under random
// slowdown it completes fewer iterations in the same time (§3.3).
func TestAblationNotifyAckSlowerUnderHeterogeneity(t *testing.T) {
	g := graph.Ring(8)
	run := func(mode core.Mode) int {
		opts := baseOptions(g, 0)
		opts.Deadline = 60 * time.Second
		opts.Core.Mode = mode
		opts.Trainers = frozenTrainers(8)
		opts.Compute.Slow = hetero.Random{Fact: 6, Prob: 1.0 / 8}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Iterations()
	}
	std := run(core.ModeStandard)
	nack := run(core.ModeNotifyAck)
	if nack > std {
		t.Errorf("NOTIFY-ACK (%d iters) should not beat queue-based standard (%d) under slowdown", nack, std)
	}
}

// TestAblationTokenQueuesCapMemory: the Figure 5 scenario. On a
// directed ring, worker 0's in-neighbor n−1 can run length(Path 0→n−1)
// = n−1 iterations ahead of a slow worker 0 (Theorem 1), piling n−1
// unconsumed updates into UpdateQ(0); token queues cap the pile at
// (1+max_ig)·|Nin| regardless of slowdown severity (§4.2).
func TestAblationTokenQueuesCapMemory(t *testing.T) {
	g := graph.DirectedRing(8)
	run := func(maxIG int) int {
		opts := baseOptions(g, 0)
		opts.Deadline = 120 * time.Second
		opts.Core.MaxIG = maxIG
		opts.Trainers = frozenTrainers(8)
		opts.Compute.Slow = hetero.Deterministic{Factors: map[int]float64{0: 30}}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Engine.Worker(0).Queue().HighWater()
	}
	unbounded := run(0)
	bounded := run(2)
	// Worker 0 receives from worker 7 and itself: (1+2)*2 = 6.
	if bounded > 6 {
		t.Errorf("token-bounded high water %d exceeds (1+max_ig)|Nin| = 6", bounded)
	}
	if unbounded <= bounded {
		t.Errorf("token-free high water (%d) should exceed bounded (%d) on a slow-head directed ring", unbounded, bounded)
	}
}

// TestAblationSendCheckReducesTraffic: §6.2(b)'s receiver-iteration
// check suppresses sends that would arrive stale, reducing bytes on
// the wire without changing convergence behaviour.
func TestAblationSendCheckReducesTraffic(t *testing.T) {
	g := graph.Ring(8)
	run := func(check bool) (int64, int) {
		opts := baseOptions(g, 0)
		opts.Deadline = 90 * time.Second
		opts.Core.MaxIG = 6
		opts.Core.Backup = 1
		opts.Core.SendCheck = check
		opts.Trainers = frozenTrainers(8)
		opts.Compute.Slow = hetero.Deterministic{Factors: map[int]float64{0: 25}}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fabric.Stats().Bytes, res.Metrics.Iterations()
	}
	bytesOff, itersOff := run(false)
	bytesOn, itersOn := run(true)
	if bytesOn >= bytesOff {
		t.Errorf("send check should reduce traffic: %d vs %d bytes", bytesOn, bytesOff)
	}
	// Progress must not be hurt materially.
	if itersOn < itersOff*8/10 {
		t.Errorf("send check hurt progress: %d vs %d iterations", itersOn, itersOff)
	}
}

// TestAblationStalenessBoundTightness: increasing s increases how far
// neighbors can run past a frozen straggler, exactly tracking s+1.
func TestAblationStalenessBoundTightness(t *testing.T) {
	g := graph.Ring(8)
	for _, s := range []int{1, 3, 6} {
		opts := baseOptions(g, 0)
		opts.Deadline = 100 * time.Second
		opts.Core.Staleness = s
		opts.Core.MaxIG = 20
		opts.Trainers = frozenTrainers(8)
		opts.Compute.Slow = hetero.Deterministic{Factors: map[int]float64{0: 8000}}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Engine.Gaps().Snapshot()[1]; got != s+1 {
			t.Errorf("s=%d: neighbor reached iteration %d, want exactly s+1=%d", s, got, s+1)
		}
	}
}
