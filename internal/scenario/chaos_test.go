package scenario

// Net-fault axis tests: the fault.net grammar and its validation
// rules, the sim plane's seeded-chaos determinism contract (the
// committed chaos scenario produces byte-identical decision traces
// and fault counters across runs), and live-plane convergence of the
// same spec under real injected drops, duplicates, delays, bit flips
// and a partition window.

import (
	"bytes"
	"encoding/json"
	"testing"

	"hop/internal/chaos"
	"hop/internal/cluster"
	"hop/internal/core"
	"hop/internal/leaktest"
	"hop/internal/live"
	"hop/internal/netsim"
)

func TestNetFaultValidation(t *testing.T) {
	base := Spec{
		Workload: "quadratic",
		Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
		MaxIter:  20,
	}
	cases := []struct {
		name     string
		protocol Protocol
		comp     string
		net      *chaos.Config
		ok       bool
	}{
		// The clause's own ranges are internal/chaos's tests; one case
		// shows the spec surfaces them, against its own worker count.
		{"partition worker out of range", Protocol{Staleness: 5}, "", &chaos.Config{Partitions: []chaos.Partition{{A: 0, B: 4, FromIter: 2, ToIter: 4}}}, false},
		{"drop needs loss absorption", Protocol{}, "", &chaos.Config{Drop: 0.1}, false},
		{"corrupt needs loss absorption", Protocol{}, "", &chaos.Config{Corrupt: 0.1}, false},
		{"duplicate and reorder are not lossy", Protocol{}, "", &chaos.Config{Duplicate: 0.2, Reorder: 0.2}, true},
		{"duplicate with token queues", Protocol{MaxIG: 2}, "", &chaos.Config{Duplicate: 0.3}, false},
		{"reorder with token queues", Protocol{MaxIG: 2}, "", &chaos.Config{Reorder: 0.3}, true},
		{"drop with staleness", Protocol{Staleness: 5}, "", &chaos.Config{Drop: 0.1}, true},
		// Backup needs token queues (core), loss refuses them: Validate
		// used to accept this and Run reject it.
		{"drop with backup alone", Protocol{Backup: 1}, "", &chaos.Config{Drop: 0.1}, false},
		{"drop with backup and token queues", Protocol{MaxIG: 4, Backup: 1}, "", &chaos.Config{Drop: 0.1}, false},
		{"loss under notify-ack", Protocol{Mode: "notify-ack", Staleness: 5}, "", &chaos.Config{Drop: 0.1}, false},
		{"loss with token queues", Protocol{MaxIG: 4, Staleness: 5}, "", &chaos.Config{Drop: 0.1}, false},
		{"partition window exceeds staleness", Protocol{Staleness: 3}, "", &chaos.Config{Partitions: []chaos.Partition{{A: 0, B: 1, FromIter: 2, ToIter: 6}}}, false},
		{"partition window within staleness", Protocol{Staleness: 5}, "", &chaos.Config{Partitions: []chaos.Partition{{A: 0, B: 1, FromIter: 2, ToIter: 6}}}, true},
		{"topk with drop", Protocol{Staleness: 5}, "topk", &chaos.Config{Drop: 0.1}, false},
		{"topk with duplicate", Protocol{Staleness: 5}, "topk", &chaos.Config{Duplicate: 0.1}, false},
		{"topk with corrupt only", Protocol{Staleness: 5}, "topk", &chaos.Config{Corrupt: 0.05}, true},
	}
	for _, c := range cases {
		spec := base
		spec.Protocol = c.protocol
		spec.Compression = c.comp
		spec.Fault = &Fault{Net: c.net}
		err := spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid net fault accepted", c.name)
		}
	}
}

// TestNetFaultRejectionsObserved runs each rule of validateNetFault
// past the check, on the simulator, and pins what it prevents: a
// deadlocked run, or — for the two rules that guard something the
// simulator does not model as a wedge — a completed one.
func TestNetFaultRejectionsObserved(t *testing.T) {
	const workers, iters = 4, 40
	part := func(from, to int) []chaos.Partition {
		return []chaos.Partition{{A: 0, B: 1, FromIter: from, ToIter: to}}
	}
	cases := []struct {
		name     string
		protocol Protocol
		net      chaos.Config
		wedges   bool
	}{
		{"standard with drop", Protocol{}, chaos.Config{Drop: 0.1}, true},
		{"standard with corrupt", Protocol{}, chaos.Config{Corrupt: 0.1}, true},
		{"standard with a partition", Protocol{}, chaos.Config{Partitions: part(3, 4)}, true},
		{"notify-ack with drop", Protocol{Mode: "notify-ack"}, chaos.Config{Drop: 0.1}, true},
		{"partition longer than staleness", Protocol{Staleness: 3}, chaos.Config{Partitions: part(2, 10)}, true},
		{"prague with drop", Protocol{Mode: "prague", GroupSize: 2}, chaos.Config{Drop: 0.1}, true},
		// Token grants never cross the simulated fabric, so only the
		// live token frame can be lost: the rule guards live runs.
		{"token queues with drop", Protocol{MaxIG: 4, Staleness: 5}, chaos.Config{Drop: 0.1}, false},
		{"token queues with duplicate", Protocol{MaxIG: 2}, chaos.Config{Duplicate: 0.3}, false},
		// A duplicate can stand in for a missing quorum member; that
		// changes what a reduce means, and wedges nothing.
		{"prague with duplicate", Protocol{Mode: "prague", GroupSize: 2}, chaos.Config{Duplicate: 0.3}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := Spec{
				Workload: "quadratic",
				Topology: Topology{Kind: "ring", Workers: workers, Machines: 1},
				Protocol: c.protocol,
				MaxIter:  iters,
				Seed:     3,
			}
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			// The spec is valid without its clause; adding the clause
			// is what validateNetFault refuses.
			spec.Fault = &Fault{Net: &c.net}
			if spec.Validate() == nil {
				t.Fatal("validateNetFault accepted the clause")
			}
			spec.Fault = nil
			opts, err := spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			opts.Net = netsim.Default1GbE()
			c.net.Seed = 403
			opts.Net.Chaos = &c.net
			res, err := cluster.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			done := res.Metrics.Iterations()
			if wedged := res.Deadlock != nil; wedged != c.wedges {
				t.Fatalf("deadlocked = %v after %d worker-iterations, want %v", wedged, done, c.wedges)
			}
			st := res.Fabric.Stats()
			if st.NetDropped+st.NetCorrupted+st.NetPartitioned+st.NetDuplicated == 0 {
				t.Errorf("no fault fired: %+v", st)
			}
			if !c.wedges && done != workers*iters {
				t.Errorf("%d worker-iterations completed, want %d", done, workers*iters)
			}
		})
	}
}

// chaosSimRun executes the committed chaos scenario once on the
// simulator with decision traces attached.
func chaosSimRun(t *testing.T, spec Spec) ([]string, *cluster.Result) {
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
		t.Fatalf("sim deadlocked under chaos: %v", res.Deadlock)
	}
	out := make([]string, n)
	for i, tr := range tracers {
		out[i] = tr.String()
	}
	return out, res
}

// TestSimChaosDeterministic: the committed ring4-chaos scenario —
// drops, duplicates, reorders, corruption and a partition window —
// runs to completion on the simulator, every injected fault class
// actually fires, and two runs produce byte-identical per-worker
// decision traces and fault counters (seeded determinism survives
// the chaos layer).
func TestSimChaosDeterministic(t *testing.T) {
	spec := loadSpec(t, "../../examples/scenarios/ring4-chaos.json")
	tr1, res1 := chaosSimRun(t, spec)
	tr2, res2 := chaosSimRun(t, spec)
	for w := range tr1 {
		if tr1[w] != tr2[w] {
			t.Errorf("worker %d decision traces differ across runs:\n  run1: %s\n  run2: %s", w, tr1[w], tr2[w])
		}
	}
	s1, s2 := res1.Fabric.Stats(), res2.Fabric.Stats()
	if s1 != s2 {
		t.Fatalf("fabric stats differ across runs:\n%+v\n%+v", s1, s2)
	}
	if s1.NetDropped == 0 || s1.NetDuplicated == 0 || s1.NetReordered == 0 || s1.NetCorrupted == 0 || s1.NetPartitioned == 0 {
		t.Errorf("some fault class never fired: %+v", s1)
	}
	for w, trainer := range res1.Trainers {
		if loss := trainer.EvalLoss(); loss > 0.2 {
			t.Errorf("worker %d loss %g under chaos", w, loss)
		}
	}

	// A sweep cell's report carries every counter of its run, protocol
	// and fault counters alike, byte-identically at any sweep width.
	sw := Sweep{Name: "chaos", Base: spec, Axes: []Axis{{Name: "check", Values: []AxisValue{
		{Label: "off"},
		{Label: "send-check", Patch: json.RawMessage(`{"protocol": {"staleness": 5, "send_check": true}, "hetero": {"kind": "random", "factor": 6}}`)},
	}}}}
	serial, err := sw.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := sw.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Cells {
		if !bytes.Equal(serial.Cells[i].JSON, wide.Cells[i].JSON) {
			t.Errorf("cell %s: width 1 vs 4 differs", serial.Cells[i].ID)
		}
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := cells[1].Spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := serial.Cells[1].Report
	if rep.Protocol != solo.Engine.Stats() || rep.Net != solo.Fabric.Stats() ||
		rep.Protocol.SendsSuppressed == 0 || rep.Net.NetDropped == 0 {
		t.Errorf("report counters %+v %+v, run counters %+v %+v",
			rep.Protocol, rep.Net, solo.Engine.Stats(), solo.Fabric.Stats())
	}
}

// TestLiveChaosConverges: the same committed spec on loopback TCP.
// Live chaos shares the spec's fault rates but rides real goroutine
// scheduling, so the assertions are structural: the run completes,
// every worker converges, and the injectors demonstrably fired —
// including real CRC-detected corruption, which tears connections
// that the suspect/probe machinery must then heal. liveTraces is
// deliberately not used here: it asserts zero read errors, and
// CRC-dropped frames legitimately produce them.
func TestLiveChaosConverges(t *testing.T) {
	defer leaktest.Check(t, 0)()
	spec := loadSpec(t, "../../examples/scenarios/ring4-chaos.json")
	res, err := spec.RunLive(LiveOptions{
		Logger: live.NopLogger(),
		Trace:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.WireStats()
	if s.ChaosDropped == 0 || s.ChaosPartitioned == 0 {
		t.Errorf("live chaos never dropped (drops %d, partitioned %d)", s.ChaosDropped, s.ChaosPartitioned)
	}
	if s.ChaosDuplicated+s.ChaosDelayed+s.ChaosCorrupted == 0 {
		t.Errorf("no duplicate/delay/corrupt fault fired (dup %d, delay %d, corrupt %d)", s.ChaosDuplicated, s.ChaosDelayed, s.ChaosCorrupted)
	}
	if s.ChaosCorrupted > 0 && s.CorruptFrames == 0 {
		t.Errorf("%d frames corrupted in flight but no receiver counted a CRC drop", s.ChaosCorrupted)
	}
	for w, worker := range res.Workers {
		if loss := worker.Trainer().EvalLoss(); loss > 0.3 {
			t.Errorf("worker %d loss %g under live chaos", w, loss)
		}
	}
}
