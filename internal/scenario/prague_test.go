package scenario

// Prague-specific scenario grammar tests: every rejected knob
// combination is pinned to its error message, the accepted ones are
// pinned as accepted, and a crash under Prague's elastic membership is
// pinned as deterministic — two simulations of the same faulty spec
// produce identical decision traces, with the dead member excluded
// from its groups rather than wedging them.

import (
	"strings"
	"testing"
	"time"

	"hop/internal/chaos"
	"hop/internal/cluster"
)

func TestPragueSpecValidation(t *testing.T) {
	// prague returns a minimal valid Prague spec to mutate per case.
	prague := func(mutate func(*Spec)) Spec {
		s := Spec{
			Workload: "quadratic",
			Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
			Protocol: Protocol{Mode: "prague", GroupSize: 2},
			MaxIter:  10,
			Seed:     1,
		}
		if mutate != nil {
			mutate(&s)
		}
		return s
	}

	cases := []struct {
		name    string
		spec    Spec
		wantErr string // "" = must validate
	}{
		{"valid", prague(nil), ""},
		{"unknown mode", prague(func(s *Spec) { s.Protocol.Mode = "gossip" }),
			`unknown protocol mode "gossip" (known: standard, notify-ack, prague, ps, adpsgd)`},
		{"group size too small", prague(func(s *Spec) { s.Protocol.GroupSize = 1 }),
			"prague group size must be >=2, got 1"},
		{"group size exceeds cluster", prague(func(s *Spec) { s.Protocol.GroupSize = 5 }),
			"prague group size 5 exceeds cluster size 4"},
		{"quorum out of range", prague(func(s *Spec) { s.Protocol.GroupQuorum = 3 }),
			"prague quorum 3 out of range [0, group size 2]"},
		{"group knobs without prague mode", Spec{
			Workload: "quadratic",
			Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
			Protocol: Protocol{GroupSize: 2},
			MaxIter:  10,
		}, "Prague config set but mode is standard"},
		{"chaos rejected", prague(func(s *Spec) {
			s.Fault = &Fault{Net: &chaos.Config{Corrupt: 0.01}}
		}), "fault net loss (corrupt/partitions) needs bounded staleness"},
		{"restart rejected", prague(func(s *Spec) {
			s.Fault = &Fault{Crashes: []Crash{{Worker: 3, Iter: 5, Restart: Duration(time.Second)}}}
		}), "rejoin does not compose with prague"},
		{"max_ig rejected", prague(func(s *Spec) { s.Protocol.MaxIG = 4 }),
			"token queues (MaxIG) do not compose"},
		{"backup rejected", prague(func(s *Spec) { s.Protocol.Backup = 1 }),
			"Backup does not compose"},
		{"staleness rejected", prague(func(s *Spec) { s.Protocol.Staleness = 2 }),
			"bounded staleness does not compose"},
		{"send check rejected", prague(func(s *Spec) { s.Protocol.SendCheck = true }),
			"SendCheck does not compose"},
		{"skip rejected", prague(func(s *Spec) { s.Protocol.SkipMaxJump = 10 }),
			"skipping iterations does not compose"},
		{"serial rejected", prague(func(s *Spec) { s.Protocol.Serial = true }),
			"Serial does not compose"},
		// Compression is orthogonal to the group schedule: both wire
		// codecs must compose with Prague.
		{"topk accepted", prague(func(s *Spec) { s.Compression = "topk:0.5" }), ""},
		{"float32 accepted", prague(func(s *Spec) { s.Compression = "float32" }), ""},
		// Crash faults without restart ride the elastic-membership path.
		{"crash accepted", prague(func(s *Spec) {
			s.Fault = &Fault{Crashes: []Crash{{Worker: 3, Iter: 5}}}
		}), ""},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("spec rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("spec validated, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestPragueCrashSimDeterminism: a mid-run crash under Prague is a
// deterministic event. The dead worker's group partners drop it from
// the reduce (P exclusions) instead of wedging, survivors keep
// training, and a second simulation of the identical spec reproduces
// every decision byte for byte.
func TestPragueCrashSimDeterminism(t *testing.T) {
	spec := Spec{
		Name:     "prague-crash",
		Workload: "quadratic",
		Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
		Protocol: Protocol{Mode: "prague", GroupSize: 2},
		Fault:    &Fault{Crashes: []Crash{{Worker: 3, Iter: 8}}},
		MaxIter:  24,
		Seed:     17,
	}
	first := simTraces(t, spec)
	second := simTraces(t, spec)
	for w := range first {
		if first[w] != second[w] {
			t.Errorf("worker %d traces diverge across runs:\n  1st: %s\n  2nd: %s",
				w, first[w], second[w])
		}
	}
	if !strings.Contains(first[3], "X@8") {
		t.Errorf("worker 3 trace lacks the scheduled crash: %s", first[3])
	}
	joined := strings.Join(first[:3], " | ")
	if !strings.Contains(joined, "D3@") {
		t.Errorf("no survivor applied worker 3's death: %s", joined)
	}
	if !strings.Contains(joined, "P3@") {
		t.Errorf("no survivor excluded worker 3 from a group reduce: %s", joined)
	}
}

// TestAllReduceBaselineIsASpec: synchronous all-reduce is Prague with
// the group equal to the whole cluster and a full quorum — a spec
// (examples/scenarios/allreduce8.json), not a package. Every step
// averages over all 8 workers, so nobody is ever excluded, everybody
// finishes the same iterations, and the 4× deterministic straggler
// gates the whole cluster's iteration time.
func TestAllReduceBaselineIsASpec(t *testing.T) {
	spec := loadSpec(t, "../../examples/scenarios/allreduce8.json")
	if n := spec.Topology.Workers; spec.Protocol.GroupSize != n || spec.Protocol.GroupQuorum != 0 {
		t.Fatalf("allreduce8 is not a full-group, full-quorum spec: %+v on %d workers", spec.Protocol, n)
	}
	slow := matrixRun(t, spec)
	spec.Hetero = Hetero{}
	homo := matrixRun(t, spec)

	for _, res := range []*cluster.Result{slow, homo} {
		if ex := res.Engine.Stats().GroupExcluded; ex != 0 {
			t.Errorf("%d group members excluded from a full-cluster reduce", ex)
		}
		for w := 0; w < spec.Topology.Workers; w++ {
			if got := res.Metrics.WorkerIterations(w); got != spec.MaxIter {
				t.Errorf("worker %d finished %d iterations, want %d", w, got, spec.MaxIter)
			}
		}
	}
	ratio := float64(slow.Metrics.MeanIterDurationAll(1)) / float64(homo.Metrics.MeanIterDurationAll(1))
	if ratio < 3.5 {
		t.Errorf("4x straggler slowed all-reduce iterations only %.2fx; it should gate every step", ratio)
	}
}
