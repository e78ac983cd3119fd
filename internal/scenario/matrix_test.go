package scenario

// Cross-protocol regression matrix: the hetero / straggler / skip
// scenarios that pin Hop's behavior also run under Prague, from the
// same table. Both protocols must converge on every case, and under
// the dominant-straggler spec Prague must degrade less than Hop
// gossip: Hop's full-participation reduces drag every worker to the
// straggler's pace, while Prague's quorum lets the fast majority keep
// training (DESIGN.md §8).

import (
	"testing"
	"time"

	"hop/internal/cluster"
)

// matrixRun resolves and simulates one spec.
func matrixRun(t *testing.T, spec Spec) *cluster.Result {
	t.Helper()
	opts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock != nil {
		t.Fatalf("deadlocked: %v", res.Deadlock)
	}
	return res
}

// pragueProto is the Prague counterpart of a Hop protocol config: it
// replaces the whole protocol block (Prague composes with none of the
// Hop knobs — skip, token queues, backup workers are all rejected).
var pragueProto = Protocol{Mode: "prague", GroupSize: 4, GroupQuorum: 2}

func TestCrossProtocolMatrix(t *testing.T) {
	cases := []struct {
		name string
		base Spec // protocol block overridden per protocol below
		hop  Protocol
	}{
		{
			// Random multiplicative slowdowns across the cluster.
			name: "hetero-random",
			base: Spec{
				Workload: "quadratic",
				Topology: Topology{Kind: "ring", Workers: 8, Machines: 2},
				Hetero:   Hetero{Kind: "random", Factor: 6, Prob: 0.25},
				MaxIter:  40,
				Seed:     1,
			},
			hop: Protocol{},
		},
		{
			// One worker 16× slower than the rest, deadline-bound.
			name: "dominant-straggler",
			base: Spec{
				Workload:    "quadratic",
				Topology:    Topology{Kind: "ring", Workers: 8, Machines: 2},
				Hetero:      Hetero{Kind: "det", Factor: 16, Workers: []int{0}},
				ComputeBase: Duration(10 * time.Millisecond),
				Deadline:    Duration(2 * time.Second),
				Seed:        2,
			},
			hop: Protocol{},
		},
		{
			// The same straggler with Hop's full mitigation stack (§5
			// skipping + token queues + backup); Prague needs none of it.
			name: "skip-mitigation",
			base: Spec{
				Workload:    "quadratic",
				Topology:    Topology{Kind: "ring", Workers: 8, Machines: 2},
				Hetero:      Hetero{Kind: "det", Factor: 16, Workers: []int{0}},
				ComputeBase: Duration(10 * time.Millisecond),
				Deadline:    Duration(2 * time.Second),
				Seed:        3,
			},
			hop: Protocol{MaxIG: 4, Backup: 1, SendCheck: true, SkipMaxJump: 10},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			hopSpec, pragueSpec := tc.base, tc.base
			hopSpec.Name, pragueSpec.Name = tc.name+"-hop", tc.name+"-prague"
			hopSpec.Protocol, pragueSpec.Protocol = tc.hop, pragueProto

			hopRes := matrixRun(t, hopSpec)
			pragueRes := matrixRun(t, pragueSpec)

			// Every worker that trained must have optimized: the eval
			// loss starts at ~7.9 for the quadratic workload.
			for name, res := range map[string]*cluster.Result{"hop": hopRes, "prague": pragueRes} {
				for w, tr := range res.Trainers {
					if res.Metrics.WorkerIterations(w) >= 10 && tr.EvalLoss() > 0.5 {
						t.Errorf("%s worker %d eval loss %.4f after %d iterations",
							name, w, tr.EvalLoss(), res.Metrics.WorkerIterations(w))
					}
				}
			}

			if tc.name != "dominant-straggler" {
				return
			}
			// The pinned degradation gap: under the dominant straggler,
			// Hop's gossip locks the ring to the straggler's 16× pace,
			// while Prague's 2-of-4 quorum leaves the 7 fast workers
			// training at full speed — at least twice the cluster-wide
			// throughput, with a wide margin in practice.
			hopIters, pragueIters := hopRes.Metrics.Iterations(), pragueRes.Metrics.Iterations()
			t.Logf("dominant straggler: hop %d total iterations, prague %d", hopIters, pragueIters)
			if pragueIters < 2*hopIters {
				t.Errorf("prague degraded as much as hop gossip: %d vs %d total iterations",
					pragueIters, hopIters)
			}
		})
	}
}
