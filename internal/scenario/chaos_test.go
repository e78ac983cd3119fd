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
	"fmt"
	"strings"
	"testing"
	"time"

	"hop/internal/chaos"
	"hop/internal/cluster"
	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/leaktest"
	"hop/internal/live"
	"hop/internal/netsim"
	"hop/internal/transport"
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
		// A drop is retransmitted, so no protocol needs to absorb it.
		{"drop is not lossy", Protocol{}, "", &chaos.Config{Drop: 0.1}, true},
		{"corrupt needs loss absorption", Protocol{}, "", &chaos.Config{Corrupt: 0.1}, false},
		{"duplicate and reorder are not lossy", Protocol{}, "", &chaos.Config{Duplicate: 0.2, Reorder: 0.2}, true},
		{"duplicate with token queues", Protocol{MaxIG: 2}, "", &chaos.Config{Duplicate: 0.3}, true},
		{"reorder with token queues", Protocol{MaxIG: 2}, "", &chaos.Config{Reorder: 0.3}, true},
		{"drop with staleness", Protocol{Staleness: 5}, "", &chaos.Config{Drop: 0.1}, true},
		{"drop with backup and token queues", Protocol{MaxIG: 4, Backup: 1}, "", &chaos.Config{Drop: 0.1}, true},
		{"drop under notify-ack", Protocol{Mode: "notify-ack"}, "", &chaos.Config{Drop: 0.1}, true},
		{"drop under prague", Protocol{Mode: "prague", GroupSize: 2}, "", &chaos.Config{Drop: 0.1}, true},
		// Backup needs token queues (core), loss refuses them: Validate
		// used to accept this and Run reject it.
		{"corrupt with backup alone", Protocol{Backup: 1}, "", &chaos.Config{Corrupt: 0.1}, false},
		{"corrupt with backup and token queues", Protocol{MaxIG: 4, Backup: 1}, "", &chaos.Config{Corrupt: 0.1}, false},
		{"loss under notify-ack", Protocol{Mode: "notify-ack", Staleness: 5}, "", &chaos.Config{Corrupt: 0.1}, false},
		{"loss under prague", Protocol{Mode: "prague", GroupSize: 2}, "", &chaos.Config{Corrupt: 0.1}, false},
		// The queue drops a duplicated update, so a duplicate cannot
		// stand in for a missing quorum member.
		{"duplicate and reorder under prague", Protocol{Mode: "prague", GroupSize: 2}, "", &chaos.Config{Duplicate: 0.2, Reorder: 0.2}, true},
		{"loss with token queues", Protocol{MaxIG: 4, Staleness: 5}, "", &chaos.Config{Corrupt: 0.1}, false},
		{"drop with token queues", Protocol{MaxIG: 4}, "", &chaos.Config{Drop: 0.1}, true},
		{"partition window exceeds staleness", Protocol{Staleness: 3}, "", &chaos.Config{Partitions: []chaos.Partition{{A: 0, B: 1, FromIter: 2, ToIter: 6}}}, false},
		{"partition window within staleness", Protocol{Staleness: 5}, "", &chaos.Config{Partitions: []chaos.Partition{{A: 0, B: 1, FromIter: 2, ToIter: 6}}}, true},
		{"topk with drop", Protocol{}, "topk", &chaos.Config{Drop: 0.1}, true},
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
// past the check, on the simulator, and pins the wedge it prevents:
// every refused clause deadlocks the run.
func TestNetFaultRejectionsObserved(t *testing.T) {
	part := func(from, to int) []chaos.Partition {
		return []chaos.Partition{{A: 0, B: 1, FromIter: from, ToIter: to}}
	}
	cases := []struct {
		name     string
		protocol Protocol
		net      chaos.Config
	}{
		{"standard with corrupt", Protocol{}, chaos.Config{Corrupt: 0.1}},
		{"standard with a partition", Protocol{}, chaos.Config{Partitions: part(3, 4)}},
		{"partition longer than staleness", Protocol{Staleness: 3}, chaos.Config{Partitions: part(2, 10)}},
		// The window is within the staleness bound, so the updates it
		// severs are absorbed; the grants it severs are not, and the
		// pair's token gates close max_ig iterations into it.
		{"token queues with a partition", Protocol{MaxIG: 2, Staleness: 5}, chaos.Config{Partitions: part(36, 40)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := Spec{
				Workload: "quadratic",
				Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
				Protocol: c.protocol,
				MaxIter:  40,
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
			if !runRefused(t, opts) {
				t.Fatal("the refused clause did not deadlock the run")
			}
		})
	}
}

// runRefused runs opts, built from a spec the validator refuses, on the
// simulator and reports whether the cluster deadlocked. Under test the
// cluster's invariant checker fails a deadlocked run by panicking, so
// the wedge such a spec is refused for shows as that panic.
func runRefused(t *testing.T, opts cluster.Options) (wedged bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "sim: deadlock") {
				panic(r)
			}
			wedged = true
		}
	}()
	if _, err := cluster.Run(opts); err != nil {
		t.Fatal(err)
	}
	return false
}

// dropRun runs spec on the simulator with fault.net's drop set, and
// fails t unless the run finishes, with drops fired. A dropped attempt
// is retransmitted, so no protocol, mode or staleness bound is needed
// for a drop-only spec to finish. It returns the worker-iterations
// completed.
func dropRun(t *testing.T, spec Spec, drop float64) int {
	t.Helper()
	var f Fault
	if spec.Fault != nil {
		f = *spec.Fault
	}
	f.Net = &chaos.Config{Drop: drop}
	spec.Fault = &f
	opts, err := spec.Resolve()
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	res, err := cluster.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock != nil {
		t.Errorf("%s: %v", spec.Name, res.Deadlock)
	} else if res.Fabric.Stats().NetDropped == 0 {
		t.Errorf("%s: no drop fired", spec.Name)
	}
	return res.Metrics.Iterations()
}

// TestDropGridFinishes: ring-4, 40 iterations, staleness 0, 1, 2 and 5
// against drop 0.05, 0.2 and 0.4, 40 spec seeds a cell, every run
// completing every worker-iteration. A drop that lost its message
// would wedge this grid two ways: mid-run (seeds 38 and 40 at staleness
// 1, drop 0.05), where a worker blocked on a lost update stops sending
// and its in-neighbour blocks on it, and at the tail (seeds 13, 22, 34
// and 40 at staleness 5, drop 0.4), where a worker waits for an update
// its finished neighbour will never send again.
func TestDropGridFinishes(t *testing.T) {
	for _, stale := range []int{0, 1, 2, 5} {
		for _, drop := range []float64{0.05, 0.2, 0.4} {
			for seed := int64(1); seed <= 40; seed++ {
				spec := Spec{
					Name:     fmt.Sprintf("staleness %d drop %g seed %d", stale, drop, seed),
					Workload: "quadratic",
					Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
					Protocol: Protocol{Staleness: stale},
					MaxIter:  40,
					Seed:     seed,
				}
				if done := dropRun(t, spec, drop); done != 4*40 {
					t.Errorf("%s: %d worker-iterations completed, want 160", spec.Name, done)
				}
			}
		}
	}
}

// TestDropModesFinish: at drop 0.3 every mode that accepts faults
// finishes on the simulator — the waits a lost update would wedge
// (NOTIFY-ACK's ACK gate, a Prague quorum, a backup reduce, a §5
// jump's token read, the serial graph's send order, a directed ring's
// one in-edge, and a rejoin's first update) are each only delayed by
// a retransmission.
func TestDropModesFinish(t *testing.T) {
	ring := func(n int) Topology { return Topology{Kind: "ring", Workers: n, Machines: 1} }
	cases := []Spec{
		{Name: "notify-ack", Topology: ring(4), Protocol: Protocol{Mode: "notify-ack"}},
		{Name: "prague group 2", Topology: ring(8), Protocol: Protocol{Mode: "prague", GroupSize: 2}},
		{Name: "max_ig 4 backup 1", Topology: ring(4), Protocol: Protocol{MaxIG: 4, Backup: 1}},
		{Name: "skip beside a 4x straggler", Topology: ring(4), Protocol: Protocol{MaxIG: 3, Backup: 1, SkipMaxJump: 3},
			Hetero: Hetero{Kind: "det", Factor: 4, Workers: []int{0}}},
		{Name: "serial", Topology: ring(4), Protocol: Protocol{Serial: true}},
		{Name: "directed ring", Topology: Topology{Kind: "directed-ring", Workers: 4, Machines: 1}},
		{Name: "crash restart", Topology: ring(4), Fault: restartAfter(1, 10, 150*time.Millisecond)},
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				spec := c
				spec.Name = fmt.Sprintf("seed %d", seed)
				spec.Workload, spec.MaxIter, spec.Seed = "quadratic", 40, seed
				dropRun(t, spec, 0.3)
			}
		})
	}
}

// TestPragueDuplicateReorderFinishes: Prague accepts the non-lossy
// chaos knobs, and every such run finishes on the simulator, with the
// faults firing. A duplicate is dropped at the receiver's queue, so it
// can neither close a quorum for a missing member nor be left queued
// to close a later one.
func TestPragueDuplicateReorderFinishes(t *testing.T) {
	nets := []chaos.Config{{Duplicate: 0.2}, {Reorder: 0.2}, {Duplicate: 0.2, Reorder: 0.2}}
	for _, group := range []int{2, 4} {
		for _, nf := range nets {
			for seed := int64(1); seed <= 10; seed++ {
				nf := nf
				spec := Spec{
					Workload: "quadratic",
					Topology: Topology{Kind: "ring", Workers: 8, Machines: 1},
					Protocol: Protocol{Mode: "prague", GroupSize: group},
					Hetero:   Hetero{Kind: "random", Factor: 4},
					Fault:    &Fault{Net: &nf},
					MaxIter:  40,
					Seed:     seed,
				}
				opts, err := spec.Resolve()
				if err != nil {
					t.Fatalf("group %d %+v seed %d: %v", group, nf, seed, err)
				}
				res, err := cluster.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Deadlock != nil {
					t.Errorf("group %d %+v seed %d: %v", group, nf, seed, res.Deadlock)
				} else if st := res.Fabric.Stats(); st.NetDuplicated+st.NetReordered == 0 {
					t.Errorf("group %d %+v seed %d: no fault fired", group, nf, seed)
				}
			}
		}
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
// Each frame meets the fate chaos.Fate gives its identity, as on the
// simulator, but this spec corrupts: a corrupt frame tears its
// connection, and which frames follow — resends on the new
// generation, heartbeats on idle connections — is up to timing. So
// the assertions are structural: the run completes, every worker
// converges, and the injectors demonstrably fired — including real
// CRC-detected corruption, which the suspect/probe machinery must
// heal. liveTraces is deliberately not used here: it asserts zero
// read errors, and CRC-dropped frames legitimately produce them.
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

// TestLiveDropFinishes: on loopback, drop 0.2 under token queues and a
// TopK delta stream, with no staleness bound, finishes with no read
// error. Standard mode without staleness reduces exactly the updates
// of each iteration, so a retransmission changes when an update lands,
// never what is reduced: the worst worker's eval loss equals the
// fault-free run's bit for bit.
func TestLiveDropFinishes(t *testing.T) {
	defer leaktest.Check(t, 0)()
	spec := loadSpec(t, "../../examples/scenarios/smoke-ring4-drop.json")
	worst := func(spec Spec) (float64, transport.Stats) {
		t.Helper()
		res, err := spec.RunLive(LiveOptions{Logger: live.NopLogger()})
		if err != nil {
			t.Fatal(err)
		}
		loss := 0.0
		for _, w := range res.Workers {
			loss = max(loss, w.Trainer().EvalLoss())
		}
		return loss, res.WireStats()
	}
	lossy, st := worst(spec)
	if st.ChaosDropped == 0 {
		t.Error("no frame was dropped")
	}
	if st.ReadErrors != 0 {
		t.Errorf("%d inbound connections dropped", st.ReadErrors)
	}
	spec.Fault = nil
	clean, _ := worst(spec)
	t.Logf("worst eval loss %g, fault-free %g, %d drops", lossy, clean, st.ChaosDropped)
	if lossy != clean {
		t.Errorf("worst eval loss %g under drop 0.2, %g without faults", lossy, clean)
	}
}

// fateMsgs is the message set of a timing-forced spec on its graph:
// an update per out-neighbor and iteration, and with token queues or
// NOTIFY-ACK a grant per in-neighbor and iteration, of the next one
// (entered, or acknowledged as the previous one finished).
func fateMsgs(spec Spec, g *graph.Graph) []chaos.Msg {
	var msgs []chaos.Msg
	for w := 0; w < g.N(); w++ {
		for k := 0; k < spec.MaxIter; k++ {
			for _, j := range g.Out(w) {
				msgs = append(msgs, chaos.Msg{Src: w, Dst: j, Kind: chaos.Update, Iter: k})
			}
			for _, j := range g.In(w) {
				if spec.Protocol.MaxIG > 0 || spec.Protocol.Mode == "notify-ack" {
					msgs = append(msgs, chaos.Msg{Src: w, Dst: j, Kind: chaos.Token, Iter: k + 1})
				}
			}
		}
	}
	return msgs
}

// fateCounts is what chaos.Fate gives over msgs: every dropped attempt,
// and the duplicates and reorders of the attempts that got through, and
// how many messages lost a retransmission too.
func fateCounts(c *chaos.Config, msgs []chaos.Msg) (drop, dup, reorder, redropped int64) {
	for _, m := range msgs {
		f := c.Fate(m, 0)
		for a := 1; f.Drop; a++ {
			drop++
			if a == 2 {
				redropped++
			}
			f = c.Fate(m, a)
		}
		if f.Duplicate {
			dup++
		}
		if f.Reorder {
			reorder++
		}
	}
	return drop, dup, reorder, redropped
}

// TestFateCountsMatchBothPlanes: on timing-forced specs under drop,
// duplicate and reorder, both planes' fault counters equal the one
// count chaos.Fate gives over the spec's message set: updates and
// token grants, NOTIFY-ACK's ACKs among them. A fault is a function of the message it hits, not
// of the schedule.
// Corrupt stays out: a torn connection changes which frames follow.
// So does fault tolerance, which the fault.net clause turns on: its
// heartbeats go out when a connection idles, which timing decides.
func TestFateCountsMatchBothPlanes(t *testing.T) {
	for name, p := range map[string]Protocol{"standard": {}, "max_ig": {MaxIG: 2}, "notify-ack": {Mode: "notify-ack"}} {
		spec := Spec{
			Name:     "fate-counts",
			Workload: "quadratic",
			Topology: Topology{Kind: "ring", Workers: 4, Machines: 1},
			Protocol: p,
			Fault:    &Fault{Net: &chaos.Config{Drop: 0.25, Duplicate: 0.2, Reorder: 0.2}},
			MaxIter:  20,
			Seed:     5,
		}
		t.Run(name, func(t *testing.T) {
			opts, err := spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			c, msgs := opts.Net.Chaos, fateMsgs(spec, opts.Core.Graph)
			opts.Core.FaultTolerance = false
			res, err := cluster.Run(opts)
			if err != nil || res.Deadlock != nil {
				t.Fatalf("sim: %v %v", err, res.Deadlock)
			}
			drop, dup, reorder, redropped := fateCounts(c, msgs)
			if redropped == 0 || dup == 0 || reorder == 0 {
				t.Fatalf("a fault never fires on this message set: redropped %d, dup %d, reorder %d", redropped, dup, reorder)
			}
			want := [3]int64{drop, dup, reorder}
			s := res.Fabric.Stats()
			if got := [3]int64{int64(s.NetDropped), int64(s.NetDuplicated), int64(s.NetReordered)}; got != want {
				t.Errorf("sim drop, dup, reorder %v, fates give %v", got, want)
			}
			cfgs, err := spec.ResolveLive(LiveOptions{Logger: live.NopLogger()})
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				cfgs[i].Config.FaultTolerance = false
			}
			lv, err := live.RunCluster(cfgs, live.DefaultDialTimeout)
			if err != nil {
				t.Fatal(err)
			}
			w := lv.WireStats()
			if got := [3]int64{w.ChaosDropped, w.ChaosDuplicated, w.ChaosDelayed}; got != want {
				t.Errorf("live drop, dup, reorder %v, fates give %v", got, want)
			}
		})
	}
}
