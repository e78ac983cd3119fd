package scenario

// The two baseline protocol modes as runs: the BSP parameter server
// ("mode": "ps") and AD-PSGD ("mode": "adpsgd"), each a spec on the one
// simulator. Option validation is pinned row by row in internal/core.

import (
	"strings"
	"testing"
	"time"

	"hop/internal/cluster"
)

func TestBaselineModes(t *testing.T) {
	star := Topology{Kind: "star", Workers: 5, Machines: 1}
	ring := func(n int) Topology { return Topology{Kind: "ring", Workers: n, Machines: 1} }
	cases := []struct {
		name  string
		spec  Spec
		check func(t *testing.T, res *cluster.Result)
	}{
		{
			// The server's replica is the model: 40 rounds of the mean of
			// four leaves' gradients converge it, and only leaves report
			// iterations.
			name: "ps-bsp-converges",
			spec: Spec{Topology: star, Protocol: Protocol{Mode: "ps"}, MaxIter: 40},
			check: func(t *testing.T, res *cluster.Result) {
				requireNoDeadlock(t, res)
				if loss := res.Trainers[0].EvalLoss(); loss > 0.1 {
					t.Errorf("server loss %g after 40 BSP rounds", loss)
				}
				if got := res.Metrics.Iterations(); got != 4*40 {
					t.Errorf("iterations %d, want 4 leaves × 40", got)
				}
				if got := res.Metrics.WorkerIterations(0); got != 0 {
					t.Errorf("server reported %d iterations", got)
				}
			},
		},
		{
			// A 5× slow leaf gates every round: all leaves complete
			// exactly MaxIter rounds, never more than one apart, at the
			// straggler's pace.
			name: "ps-leaves-lockstep",
			spec: Spec{Topology: star, Protocol: Protocol{Mode: "ps"}, MaxIter: 10,
				Hetero: Hetero{Kind: "det", Factor: 5, Workers: []int{2}}},
			check: func(t *testing.T, res *cluster.Result) {
				requireNoDeadlock(t, res)
				for w := 1; w < 5; w++ {
					if got := res.Metrics.WorkerIterations(w); got != 10 {
						t.Errorf("leaf %d did %d rounds, want 10", w, got)
					}
				}
				if gap := res.Engine.Gaps().MaxGapOverall(); gap > 1 {
					t.Errorf("max iteration gap %d, BSP keeps it at 1", gap)
				}
				if mean := res.Metrics.MeanIterDurationAll(1); mean < 400*time.Millisecond {
					t.Errorf("mean round %v; the 500ms straggler should gate it", mean)
				}
			},
		},
		{
			// Bipartite: colour 0 initiates, colour 1 serves, and every
			// replica converges.
			name: "adpsgd-bipartite-ring-converges",
			spec: Spec{Topology: ring(8), Protocol: Protocol{Mode: "adpsgd"}, MaxIter: 60,
				ComputeBase: Duration(50 * time.Millisecond)},
			check: func(t *testing.T, res *cluster.Result) {
				requireNoDeadlock(t, res)
				for w, tr := range res.Trainers {
					if loss := tr.EvalLoss(); loss > 0.5 {
						t.Errorf("worker %d loss %g", w, loss)
					}
				}
			},
		},
		{
			// §5's criticism: an odd ring has no bipartition, every worker
			// initiates and blocks for its reply without serving, and the
			// kernel names every one of them.
			name: "adpsgd-odd-ring-deadlocks",
			spec: Spec{Topology: ring(7), Protocol: Protocol{Mode: "adpsgd"}, MaxIter: 40,
				ComputeBase: Duration(50 * time.Millisecond)},
			check: func(t *testing.T, res *cluster.Result) {
				if res.Deadlock == nil {
					t.Fatal("AD-PSGD on an odd ring should deadlock")
				}
				want := "7 process(es) blocked: [worker-0 worker-1 worker-2 worker-3 worker-4 worker-5 worker-6]"
				if got := res.Deadlock.Error(); !strings.Contains(got, want) {
					t.Errorf("deadlock %q, want every worker named: %q", got, want)
				}
			},
		},
		{
			// A 10× slow serving worker (colour 1) only delays the
			// initiators that pick it; worker 0 never does and outpaces it.
			name: "adpsgd-straggler-does-not-block",
			spec: Spec{Topology: ring(8), Protocol: Protocol{Mode: "adpsgd"},
				ComputeBase: Duration(50 * time.Millisecond), Deadline: Duration(20 * time.Second),
				Hetero: Hetero{Kind: "det", Factor: 10, Workers: []int{3}}},
			check: func(t *testing.T, res *cluster.Result) {
				requireNoDeadlock(t, res)
				fast, slow := res.Metrics.WorkerIterations(0), res.Metrics.WorkerIterations(3)
				if fast <= 2*slow {
					t.Errorf("fast worker %d iterations, straggler %d: the straggler blocked it", fast, slow)
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Workload, tc.spec.Seed = "quadratic", 4
			opts, err := tc.spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			res, err := cluster.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, res)
		})
	}
}

func requireNoDeadlock(t *testing.T, res *cluster.Result) {
	t.Helper()
	if res.Deadlock != nil {
		t.Fatalf("deadlocked: %v", res.Deadlock)
	}
}
