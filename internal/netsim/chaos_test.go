package netsim

import (
	"testing"
	"time"

	"hop/internal/chaos"
	"hop/internal/sim"
)

func chaosCfg(c *chaos.Config) Config {
	cf := cfg()
	cf.Chaos = c
	return cf
}

// TestChaosDeterministic: two fabrics built from the same config
// deliver the same message schedule with the same faults at the same
// virtual times — the sim plane's byte-identical contract.
func TestChaosDeterministic(t *testing.T) {
	runOnce := func() ([]time.Duration, Stats) {
		k := sim.NewKernel()
		f := New(k, chaosCfg(&chaos.Config{
			Drop: 0.2, Duplicate: 0.15, Reorder: 0.2, Corrupt: 0.1, Seed: 42,
		}), 3, []int{0, 1, 2})
		var arrivals []time.Duration
		f.Handle(func(Message) { arrivals = append(arrivals, k.Now()) })
		k.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				f.DeliverData(1000, Message{From: i % 3, Dst: (i + 1) % 3, Iter: i})
				p.Sleep(time.Millisecond)
			}
		})
		run(t, k, time.Minute)
		return arrivals, f.Stats()
	}
	a1, s1 := runOnce()
	a2, s2 := runOnce()
	if len(a1) != len(a2) {
		t.Fatalf("runs delivered %d vs %d messages", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a1[i], a2[i])
		}
	}
	if s1 != s2 {
		t.Fatalf("stats differ:\n%+v\n%+v", s1, s2)
	}
	lost := s1.NetDropped + s1.NetCorrupted
	if lost == 0 || s1.NetDuplicated == 0 || s1.NetReordered == 0 {
		t.Errorf("faults never fired: %+v", s1)
	}
	if got := 40 - lost + s1.NetDuplicated; len(a1) != got {
		t.Errorf("%d deliveries, want sent - lost + dup = %d", len(a1), got)
	}
}

// TestChaosPartitionWindow: messages between the pair inside the
// iteration window vanish; outside it (and on other links) they pass.
func TestChaosPartitionWindow(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, chaosCfg(&chaos.Config{
		Partitions: []chaos.Partition{{A: 0, B: 1, FromIter: 5, ToIter: 8}},
	}), 3, []int{0, 1, 2})
	delivered := map[int]bool{} // iter → arrived at worker 0
	otherLink := false
	f.Handle(func(m Message) {
		if m.Dst == 0 {
			delivered[m.Iter] = true
		} else {
			otherLink = true
		}
	})
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			f.DeliverData(100, Message{From: 1, Dst: 0, Iter: i}) // both directions severed
			p.Sleep(time.Millisecond)
		}
		f.DeliverData(100, Message{From: 0, Dst: 2, Iter: 6}) // other link, in-window iter
	})
	run(t, k, time.Minute)
	for i := 0; i < 10; i++ {
		want := i < 5 || i >= 8
		if delivered[i] != want {
			t.Errorf("iter %d delivered=%v, want %v", i, delivered[i], want)
		}
	}
	if !otherLink {
		t.Error("unpartitioned link was severed")
	}
	if got := f.Stats().NetPartitioned; got != 3 {
		t.Errorf("NetPartitioned = %d, want 3", got)
	}
}

// TestChaosValidation: a clause chaos.Config.Validate refuses fails
// construction loudly, like the burst checks (the rules themselves are
// internal/chaos's tests).
func TestChaosValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid chaos config accepted")
		}
	}()
	New(sim.NewKernel(), chaosCfg(&chaos.Config{Drop: 1.5}), 3, []int{0, 1, 2})
}

// TestChaosOffIsIdentity: a nil chaos config must leave DeliverData
// exactly equal to Deliver (no draws, no counters).
func TestChaosOffIsIdentity(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, cfg(), 2, []int{0, 1})
	var at time.Duration
	var got Message
	f.Handle(func(m Message) { at, got = k.Now(), m })
	sent := Message{From: 0, Dst: 1, Iter: 3, Params: []float64{1, 2}}
	k.Spawn("tx", func(*sim.Proc) { f.DeliverData(1_000_000, sent) })
	run(t, k, 5*time.Second)
	want := 10*time.Millisecond + time.Second
	if at != want {
		t.Errorf("delivery at %v, want %v", at, want)
	}
	if got.From != 0 || got.Dst != 1 || got.Iter != 3 || got.Ack || &got.Params[0] != &sent.Params[0] {
		t.Errorf("handler received %+v, want the sent message (params shared, not copied)", got)
	}
	s := f.Stats()
	if s.NetDropped+s.NetDuplicated+s.NetReordered+s.NetCorrupted+s.NetPartitioned != 0 {
		t.Errorf("chaos counters moved without chaos: %+v", s)
	}
}

// TestChaosDuplicateOwnsItsParams: every delivered slice has one owner,
// who may recycle it once reduced, so a duplicate carries a copy of
// the parameters, never the original's slice. A message without
// parameters (an ACK) stays without.
func TestChaosDuplicateOwnsItsParams(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, chaosCfg(&chaos.Config{Duplicate: 1, Seed: 42}), 2, []int{0, 1})
	var got []Message
	f.Handle(func(m Message) { got = append(got, m) })
	sent := Message{From: 0, Dst: 1, Iter: 3, Params: []float64{1, 2}}
	k.Spawn("tx", func(*sim.Proc) {
		f.DeliverData(100, sent)
		f.DeliverData(100, Message{From: 0, Dst: 1, Iter: 3, Ack: true})
	})
	run(t, k, time.Second)
	if len(got) != 4 {
		t.Fatalf("%d deliveries, want 2 messages twice", len(got))
	}
	var params [][]float64
	for _, m := range got {
		if m.Ack {
			if m.Params != nil {
				t.Errorf("a duplicated ACK carries parameters %v", m.Params)
			}
			continue
		}
		params = append(params, m.Params)
	}
	if len(params) != 2 || &params[0][0] == &params[1][0] {
		t.Fatalf("the update and its duplicate share one slice")
	}
	for _, p := range params {
		if p[0] != 1 || p[1] != 2 {
			t.Errorf("delivered parameters %v, want [1 2]", p)
		}
	}
}
