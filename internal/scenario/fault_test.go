package scenario

// Fault-axis tests: spec grammar and validation, the sim-plane crash
// and restart semantics, and the membership-event differential
// contract — the committed crash scenario produces byte-identical
// per-worker decision traces (crash, death and all) on the simulator
// and on loopback TCP.

import (
	"os"
	"testing"
	"time"

	"hop/internal/cluster"
	"hop/internal/core"
	"hop/internal/live"
)

func TestFaultAxisValidation(t *testing.T) {
	base := Spec{
		Workload: "quadratic",
		Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
		MaxIter:  20,
	}
	cases := []struct {
		name  string
		fault *Fault
		ok    bool
	}{
		{"empty fault enables tolerance", &Fault{}, true},
		{"valid crash", &Fault{Crashes: []Crash{{Worker: 3, Iter: 10}}}, true},
		{"valid crash with restart", &Fault{Crashes: []Crash{{Worker: 1, Iter: 5, Restart: Duration(time.Second)}}}, true},
		{"worker out of range", &Fault{Crashes: []Crash{{Worker: 4, Iter: 10}}}, false},
		{"negative worker", &Fault{Crashes: []Crash{{Worker: -1, Iter: 10}}}, false},
		{"duplicate worker", &Fault{Crashes: []Crash{{Worker: 2, Iter: 5}, {Worker: 2, Iter: 8}}}, false},
		{"iter zero", &Fault{Crashes: []Crash{{Worker: 0, Iter: 0}}}, false},
		{"crash at max_iter", &Fault{Crashes: []Crash{{Worker: 0, Iter: 20}}}, false},
		{"negative restart", &Fault{Crashes: []Crash{{Worker: 0, Iter: 5, Restart: Duration(-time.Second)}}}, false},
	}
	for _, c := range cases {
		spec := base
		spec.Fault = c.fault
		err := spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid fault accepted", c.name)
		}
	}
}

func TestFaultAxisResolvesAndRoundTrips(t *testing.T) {
	spec := Spec{
		Workload: "quadratic",
		Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
		Fault: &Fault{Crashes: []Crash{
			{Worker: 3, Iter: 10, Restart: Duration(300 * time.Millisecond)},
		}},
		MaxIter: 20,
	}
	opts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Core.FaultTolerance {
		t.Error("fault axis did not enable FaultTolerance")
	}
	if len(opts.Core.Faults) != 4 {
		t.Fatalf("faults len %d, want one per worker", len(opts.Core.Faults))
	}
	want := core.FaultSchedule{CrashIter: 10, RestartAfter: 300 * time.Millisecond}
	if opts.Core.Faults[3] != want {
		t.Errorf("worker 3 schedule %+v, want %+v", opts.Core.Faults[3], want)
	}
	if opts.Core.Faults[0] != (core.FaultSchedule{}) {
		t.Errorf("worker 0 schedule %+v, want zero", opts.Core.Faults[0])
	}

	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fault == nil || len(back.Fault.Crashes) != 1 || back.Fault.Crashes[0] != spec.Fault.Crashes[0] {
		t.Errorf("fault axis did not round-trip: %+v", back.Fault)
	}
}

// loadSpec reads a committed scenario file.
func loadSpec(t *testing.T, path string) Spec {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// crashTraces are the timing-forced decision traces of the committed
// ring4-crash scenario: worker 3 halts at the top of iteration 10 (its
// last update is tagged 9), so its ring neighbors 0 and 2 find the
// tagged-10 update missing inside their iteration-10 reduce and drop
// it exactly there — on both planes. Worker 1 never borders the crash.
func crashTraces() []string {
	advances := func(from, to int) string {
		s := ""
		for k := from; k < to; k++ {
			if s != "" {
				s += " "
			}
			s += core.TraceEvent{Kind: core.TraceAdvance, Iter: k}.String()
		}
		return s
	}
	return []string{
		advances(0, 11) + " D3@10 " + advances(11, 20),
		advances(0, 20),
		advances(0, 11) + " D3@10 " + advances(11, 20),
		advances(0, 10) + " X@10",
	}
}

// TestDifferentialTraceCrash pins the membership-event differential
// contract on the committed crash scenario: every worker's full
// decision trace — iteration advances, the crash, the deaths — is
// byte-identical between the simulator and loopback TCP.
func TestDifferentialTraceCrash(t *testing.T) {
	spec := loadSpec(t, "../../examples/scenarios/ring4-crash.json")
	want := crashTraces()
	sim := simTraces(t, spec)
	for w := range sim {
		if sim[w] != want[w] {
			t.Errorf("sim worker %d trace %q, want %q", w, sim[w], want[w])
		}
	}
	lv := liveTraces(t, spec, 1)
	assertTracesEqual(t, sim, lv)
}

// TestSimCrashRestart: the deterministic simulator's full fault cycle —
// crash at 10, death at the neighbors, restart after 300ms of virtual
// time, two-stage re-admission, rejoin sync — is itself reproducible,
// so the exact membership strings are pinned.
func TestSimCrashRestart(t *testing.T) {
	spec := Spec{
		Workload: "quadratic",
		Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
		Fault: &Fault{Crashes: []Crash{
			{Worker: 3, Iter: 10, Restart: Duration(300 * time.Millisecond)},
		}},
		MaxIter: 30,
		Seed:    7,
	}
	opts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	n := opts.Core.Graph.N()
	tracers := make([]*core.Trace, n)
	for i := range tracers {
		tracers[i] = core.NewTrace()
	}
	opts.Core.Tracers = tracers
	res, err := cluster.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock != nil {
		t.Fatalf("sim deadlocked: %v", res.Deadlock)
	}
	wantMembers := []string{"D3@10 R3@14", "", "D3@10 R3@14", "X@10 B@15"}
	for w, tr := range tracers {
		if got := tr.MembershipString(); got != wantMembers[w] {
			t.Errorf("worker %d membership %q, want %q", w, got, wantMembers[w])
		}
	}
	st := res.Engine.Stats()
	if st.PeersLost != 2 || st.PeersJoined != 2 {
		t.Errorf("stats lost=%d joined=%d, want 2 and 2", st.PeersLost, st.PeersJoined)
	}
	for w, trainer := range res.Trainers {
		if loss := trainer.EvalLoss(); loss > 0.1 {
			t.Errorf("worker %d loss %g after rejoin", w, loss)
		}
	}
}

// TestLiveCrashRestartConverges: the same fault cycle on loopback TCP,
// with iterations stretched to real time so the restart lands mid-run.
// Live rejoin timing is not deterministic, so the assertions are
// structural: a full crash/rejoin membership cycle and convergence.
func TestLiveCrashRestartConverges(t *testing.T) {
	spec := Spec{
		Workload:    "quadratic",
		Topology:    Topology{Kind: "ring", Workers: 4, Machines: 1},
		Hetero:      Hetero{Kind: "det", Factor: 2, Workers: []int{0, 1, 2, 3}},
		ComputeBase: Duration(20 * time.Millisecond),
		Fault: &Fault{Crashes: []Crash{
			{Worker: 3, Iter: 10, Restart: Duration(100 * time.Millisecond)},
		}},
		MaxIter: 30,
		Seed:    7,
	}
	res, err := spec.RunLive(LiveOptions{
		Logger: live.NopLogger(),
		Trace:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	members := res.Workers[3].Trace().Memberships()
	if len(members) != 2 || members[0].Kind != core.TraceCrash || members[1].Kind != core.TraceRejoin {
		t.Fatalf("worker 3 membership %q, want crash then rejoin", res.Workers[3].Trace().MembershipString())
	}
	for _, w := range []int{0, 2} {
		ms := res.Workers[w].Trace().Memberships()
		if len(ms) != 2 || ms[0].Kind != core.TraceDeath || ms[1].Kind != core.TraceJoin {
			t.Errorf("worker %d membership %q, want death then join", w, res.Workers[w].Trace().MembershipString())
		}
	}
	for w, worker := range res.Workers {
		if loss := worker.Trainer().EvalLoss(); loss > 0.3 {
			t.Errorf("worker %d loss %g after rejoin", w, loss)
		}
	}
}
