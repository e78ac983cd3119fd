package scenario

// Fault-axis tests: spec grammar and validation, the sim-plane crash
// and restart semantics, and the membership-event differential
// contract — the committed crash scenario produces byte-identical
// per-worker decision traces (crash, death and all) on the simulator
// and on loopback TCP.

import (
	"fmt"
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

func restartAfter(w, iter int, after time.Duration) *Fault {
	return &Fault{Crashes: []Crash{{Worker: w, Iter: iter, Restart: Duration(after)}}}
}

// TestRestartWedgesRefused pins the crash-restart family the validator
// refuses with a spec that deadlocks on the simulator when accepted:
// NOTIFY-ACK, whose Send gate has no slack. On a directed ring-6 with
// worker 2 slowed 4×, worker 1 crashes at iteration 1 and is back
// 20 ms later, entering iteration 2. Its grants are late, because its
// own sends wait on the straggler, so survivor 0's gate for Send(4)
// applies the old incarnation's pending death to it and re-admits it
// at 5 (trace "D1@4 R1@5"): update 4 is never sent, and the rejoiner
// waits for it forever. With the refusal lifted, 6 of 480 NOTIFY-ACK
// specs on TestRestartGridFinishes' grid wedge so, all this shape. The
// same spec without the restart is valid and finishes.
func TestRestartWedgesRefused(t *testing.T) {
	spec := Spec{
		Name:     "notify-ack directed-ring-6",
		Workload: "quadratic",
		Topology: Topology{Kind: "directed-ring", Workers: 6, Machines: 1},
		Protocol: Protocol{Mode: "notify-ack"},
		Hetero:   Hetero{Kind: "det", Workers: []int{2}},
		Fault:    restartAfter(1, 1, 20*time.Millisecond),
		MaxIter:  40,
		Seed:     1,
	}
	if spec.Validate() == nil {
		t.Errorf("%s: crash restart accepted", spec.Name)
	}
	spec.Fault = restartAfter(1, 1, 0)
	opts, err := spec.Resolve()
	if err != nil {
		t.Fatalf("%s without the restart: %v", spec.Name, err)
	}
	res, err := cluster.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock != nil {
		t.Errorf("%s without the restart: %v", spec.Name, res.Deadlock)
	}
}

// TestRestartGridFinishes runs a worker crash and restart across
// topologies, protocols, restart delays, stragglers, crash iterations
// and seeds on the simulator; every spec must validate and finish. It
// covers the rejoin wedges fixed by cumulative grants and restart
// announces: a survivor that let the announce clear the old
// incarnation's pending death waited forever for its tagged-k update
// (ring-6, standard, worker 1 crashing at 10 and back after 20 ms,
// worker 0 slowed 4×, seed 1), and a rejoiner whose token view started
// at max_ig rather than at the iteration it entered wedged against
// survivors ahead of it. On a directed ring the rejoiner's out-neighbor
// is not an in-neighbor, so its rejoin iteration ignores how far that
// neighbor ran ahead: with the straggler feeding the rejoiner the
// neighbor gets more than max_ig past it, and it waits for the
// rejoiner's updates while the rejoiner waits for its grants unless
// re-admitting the in-edge grants the iteration it is in (80 directed
// specs wedged without that grant). The directed-ring-5 specs wedged
// at 1.0 s (crash at 5) and 2.0 s (crash at 15) while the grant was a
// token count. The last spec, complete-6 across two machines with svm's
// large updates, restarts worker 1 before its last updates, and so its
// death notices, have landed: a survivor that heard the announce before
// the notice applied the death to the rejoiner and never re-admitted it
// (sim: deadlock at 1.58 s), until a restarted worker's messages waited
// for its predecessor's notices.
func TestRestartGridFinishes(t *testing.T) {
	protocols := []Protocol{{}, {MaxIG: 2}, {Staleness: 2}, {MaxIG: 4, Backup: 1}}
	heteros := []Hetero{{}, {Kind: "det", Workers: []int{0}}, {Kind: "det", Workers: []int{2}}}
	var specs []Spec
	for _, kind := range []string{"ring", "ring-based", "chain", "complete", "directed-ring"} {
		for _, proto := range protocols {
			for _, after := range []time.Duration{1, 20, 60, 150} {
				for _, het := range heteros {
					for _, iter := range []int{1, 2, 10, 30} {
						for seed := int64(1); seed <= 2; seed++ {
							specs = append(specs, Spec{
								Name:     fmt.Sprintf("%s-6 %+v restart %v %+v crash %d seed %d", kind, proto, after*time.Millisecond, het, iter, seed),
								Workload: "quadratic",
								Topology: Topology{Kind: kind, Workers: 6, Machines: 1},
								Protocol: proto,
								Hetero:   het,
								Fault:    restartAfter(1, iter, after*time.Millisecond),
								MaxIter:  40,
								Seed:     seed,
							})
						}
					}
				}
			}
		}
	}
	for _, iter := range []int{5, 15} {
		for seed := int64(1); seed <= 3; seed++ {
			specs = append(specs, Spec{
				Name:     fmt.Sprintf("max_ig 2 directed-ring-5, crash at %d, seed %d", iter, seed),
				Workload: "quadratic",
				Topology: Topology{Kind: "directed-ring", Workers: 5, Machines: 1},
				Protocol: Protocol{MaxIG: 2},
				Fault:    restartAfter(1, iter, 150*time.Millisecond),
				MaxIter:  60,
				Seed:     seed,
			})
		}
	}
	specs = append(specs, Spec{
		Name:     "max_ig 2 complete-6 on 2 machines, svm, restart 30ms",
		Workload: "svm",
		Topology: Topology{Kind: "complete", Workers: 6, Machines: 2},
		Protocol: Protocol{MaxIG: 2},
		Fault:    restartAfter(1, 10, 30*time.Millisecond),
		MaxIter:  40,
		Seed:     3,
	})
	wedged := 0
	for _, spec := range specs {
		opts, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		res, err := cluster.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlock != nil {
			if wedged++; wedged <= 5 {
				t.Errorf("%s: %v", spec.Name, res.Deadlock)
			}
		}
	}
	if wedged > 0 {
		t.Errorf("%d of %d specs deadlocked", wedged, len(specs))
	}
}

// TestCrashGridFinishes runs a plain crash, no restart, on the serial
// graph (protocol.serial and NOTIFY-ACK) under random 6× slowdowns, the
// family whose death notice could overtake the crashed worker's last
// update: a metadata-sized notice on an intra-machine link lands
// before the payload-sized update, the survivor applies the death and
// then reads the late update as a rejoin, re-admitting a dead peer.
// 171 of these 480 specs deadlocked so; chain-6 on 2 machines,
// NOTIFY-ACK, worker 2 crashing at 20, seed 3 wedged at 19.0 s with
// workers 0 and 1 blocked. Every spec must finish.
func TestCrashGridFinishes(t *testing.T) {
	var specs []Spec
	for _, kind := range []string{"ring", "ring-based", "chain", "complete", "directed-ring"} {
		for _, proto := range []Protocol{{Serial: true}, {Mode: "notify-ack"}} {
			label := "serial"
			if proto.Mode != "" {
				label = proto.Mode
			}
			for _, machines := range []int{1, 2} {
				for w := 1; w <= 3; w++ {
					for _, iter := range []int{5, 20} {
						for seed := int64(1); seed <= 4; seed++ {
							specs = append(specs, Spec{
								Name:     fmt.Sprintf("%s-6 on %d machines, %s, worker %d crashes at %d, seed %d", kind, machines, label, w, iter, seed),
								Workload: "quadratic",
								Topology: Topology{Kind: kind, Workers: 6, Machines: machines},
								Protocol: proto,
								Hetero:   Hetero{Kind: "random"},
								Fault:    &Fault{Crashes: []Crash{{Worker: w, Iter: iter}}},
								MaxIter:  60,
								Seed:     seed,
							})
						}
					}
				}
			}
		}
	}
	wedged := 0
	for _, spec := range specs {
		opts, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if runRefused(t, opts) {
			if wedged++; wedged <= 5 {
				t.Errorf("%s: deadlocked", spec.Name)
			}
		}
	}
	if wedged > 0 {
		t.Errorf("%d of %d specs deadlocked", wedged, len(specs))
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
	opts.Tracers = tracers
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
