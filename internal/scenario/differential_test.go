package scenario

// Differential tests of the protocol core's central promise (DESIGN.md
// §5): because the simulator and the live TCP runtime drive the same
// core.Protocol state machine, a spec whose protocol decisions are
// timing-forced produces *identical* per-worker decision traces —
// iteration advances, §5 jumps, bounded-staleness exclusions — on
// both planes, for the same spec and seed.
//
// The pinned specs:
//
//   - standard ring: full-participation reduces force the advance
//     sequence 0..MaxIter−1 on every worker (and zero jumps or stale
//     exclusions) regardless of message timing;
//   - skip + deterministic straggler: the straggler's injected delay
//     dominates its neighbors' iteration time by >50×, so every jump
//     decision reads token counts at the max_ig bound — the jump
//     cadence is forced, not raced;
//   - the committed Prague and parameter-server example specs, whose
//     full-quorum and BSP waits force their sequences the same way.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hop/internal/cluster"
	"hop/internal/core"
	"hop/internal/live"
)

// simTraces resolves and runs the spec on the deterministic simulator
// with a decision trace per worker, returning the canonical strings.
func simTraces(t *testing.T, spec Spec) []string {
	t.Helper()
	opts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	n := opts.Core.Graph.N()
	tracers := make([]*core.Trace, n)
	for i := range tracers {
		tracers[i] = core.NewTrace()
	}
	opts.Tracers = tracers
	res, err := cluster.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock != nil {
		t.Fatalf("sim deadlocked: %v", res.Deadlock)
	}
	out := make([]string, n)
	for i, tr := range tracers {
		out[i] = tr.String()
	}
	return out
}

// liveTraces runs the same spec as a live loopback TCP cluster with
// tracing and returns the canonical strings.
func liveTraces(t *testing.T, spec Spec, scale float64) []string {
	t.Helper()
	res, err := spec.RunLive(LiveOptions{
		TimeScale: scale,
		Logger:    live.NopLogger(),
		Trace:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res.Workers))
	for i, w := range res.Workers {
		out[i] = w.Trace().String()
	}
	if rs := res.WireStats(); rs.ReadErrors != 0 {
		t.Fatalf("live cluster dropped %d inbound connections", rs.ReadErrors)
	}
	return out
}

func assertTracesEqual(t *testing.T, sim, lv []string) {
	t.Helper()
	if len(sim) != len(lv) {
		t.Fatalf("worker counts differ: sim %d, live %d", len(sim), len(lv))
	}
	for w := range sim {
		if sim[w] != lv[w] {
			t.Errorf("worker %d decision traces diverge:\n  sim:  %s\n  live: %s", w, sim[w], lv[w])
		}
	}
}

func TestDifferentialTraceStandardRing(t *testing.T) {
	spec := Spec{
		Name:     "diff-standard-ring",
		Workload: "quadratic",
		Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
		MaxIter:  20,
		Seed:     5,
	}
	sim := simTraces(t, spec)
	lv := liveTraces(t, spec, 1)
	// The forced decision sequence itself: every worker advances
	// 0..19, nothing else.
	want := "+0"
	for k := 1; k < 20; k++ {
		want += " " + core.TraceEvent{Kind: core.TraceAdvance, Iter: k}.String()
	}
	for w := range sim {
		if sim[w] != want {
			t.Errorf("sim worker %d trace %q, want %q", w, sim[w], want)
		}
	}
	assertTracesEqual(t, sim, lv)
}

func TestDifferentialTraceSkipStraggler(t *testing.T) {
	spec := Spec{
		Name:     "diff-skip-straggler",
		Workload: "quadratic",
		Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
		Protocol: Protocol{
			MaxIG:       3,
			Backup:      1,
			SkipMaxJump: 3,
		},
		// Worker 0 is 40× slower; with compute_base 5ms its modeled
		// iteration takes 200ms (sim) while its live surplus sleep is
		// 0.5·195ms ≈ 98ms — both dwarf the neighbors' real/modeled
		// iteration time, so every jump reads tokens at the bound.
		Hetero:      Hetero{Kind: "det", Factor: 40, Workers: []int{0}},
		ComputeBase: Duration(5 * time.Millisecond),
		MaxIter:     16,
		Seed:        9,
	}
	sim := simTraces(t, spec)
	lv := liveTraces(t, spec, 0.5)

	// The straggler's forced cadence: jump max_ig=3 forward each
	// iteration until MaxIter clamps the last advance.
	wantStraggler := "+0 J0>3 +3 J3>6 +6 J6>9 +9 J9>12 +12 J12>15 +15"
	if sim[0] != wantStraggler {
		t.Errorf("sim straggler trace %q, want %q", sim[0], wantStraggler)
	}
	assertTracesEqual(t, sim, lv)
}

// TestDifferentialTracePrague pins the committed Prague example spec
// (examples/scenarios/prague4.json) across both planes. The spec uses
// the default full-group quorum, so every reduce blocks for all live
// group members' tagged updates — the decision sequence (advance +
// group formation, zero exclusions) is timing-forced, and the traces
// must match byte for byte. The expected sequence is also rebuilt
// independently from core.PragueGroups, pinning the committed spec to
// the scheduler itself: a schedule change breaks this test.
func TestDifferentialTracePrague(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "prague4.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	sim := simTraces(t, spec)
	lv := liveTraces(t, spec, 1)

	// Rebuild the forced decision sequence from the schedule: the group
	// seed is 500+seed, and each step contributes "+k G<members>@k".
	n := spec.Topology.Workers
	seed := 500 + spec.Seed
	for w := 0; w < n; w++ {
		var want []string
		for k := 0; k < spec.MaxIter; k++ {
			g := core.PragueGroupOf(seed, k, n, spec.Protocol.GroupSize, w)
			want = append(want,
				core.TraceEvent{Kind: core.TraceAdvance, Iter: k}.String(),
				core.TraceEvent{Kind: core.TraceGroup, Members: g, Iter: k}.String())
		}
		if wantStr := strings.Join(want, " "); sim[w] != wantStr {
			t.Errorf("sim worker %d trace %q, want %q", w, sim[w], wantStr)
		}
	}
	assertTracesEqual(t, sim, lv)
}

// TestDifferentialTracePS pins the committed parameter-server spec
// (examples/scenarios/ps5.json) across both planes. BSP is
// timing-forced — the server waits for every leaf, every leaf for the
// server — so every node advances 0..MaxIter−1 and nothing else, on
// the simulator and on TCP alike.
func TestDifferentialTracePS(t *testing.T) {
	spec := loadSpec(t, "../../examples/scenarios/ps5.json")
	sim := simTraces(t, spec)
	lv := liveTraces(t, spec, 1)
	want := "+0"
	for k := 1; k < spec.MaxIter; k++ {
		want += " " + core.TraceEvent{Kind: core.TraceAdvance, Iter: k}.String()
	}
	for w := range sim {
		if sim[w] != want {
			t.Errorf("sim node %d trace %q, want %q", w, sim[w], want)
		}
	}
	assertTracesEqual(t, sim, lv)
}

// TestDifferentialLiveLossTracksSim: beyond decisions, the live run of
// a timing-forced spec must optimize comparably — same spec, same
// seeds, losses in the same regime (exact parameter equality is out of
// scope: reduce sets may include extra already-arrived updates).
func TestDifferentialLiveLossTracksSim(t *testing.T) {
	spec := Spec{
		Workload: "quadratic",
		Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
		MaxIter:  40,
		Seed:     11,
	}
	opts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := cluster.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	liveRes, err := spec.RunLive(LiveOptions{Logger: live.NopLogger()})
	if err != nil {
		t.Fatal(err)
	}
	for w, tr := range liveRes.Workers {
		simLoss := simRes.Trainers[w].EvalLoss()
		liveLoss := tr.Trainer().EvalLoss()
		if liveLoss > simLoss+0.1 || liveLoss > 0.2 {
			t.Errorf("worker %d: live eval loss %.4f vs sim %.4f", w, liveLoss, simLoss)
		}
	}
}
