package netsim

import (
	"math/rand"
	"testing"
	"time"

	"hop/internal/sim"
)

func cfg() Config {
	return Config{
		Intra: LinkParams{Latency: time.Millisecond, Bandwidth: 1e9},
		Inter: LinkParams{Latency: 10 * time.Millisecond, Bandwidth: 1e6}, // 1 MB/s
	}
}

// run drives a kernel with one idle proc long enough for deliveries.
func run(t *testing.T, k *sim.Kernel, d time.Duration) {
	t.Helper()
	k.Spawn("idle", func(p *sim.Proc) { p.Sleep(d) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIntraMachineCheap(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, cfg(), 2, []int{0, 0})
	var at time.Duration
	f.Deliver(0, 1, 1000, func() { at = k.Now() })
	run(t, k, time.Second)
	want := time.Millisecond + time.Duration(1000.0/1e9*1e9)
	if at != want {
		t.Errorf("intra delivery at %v, want %v", at, want)
	}
}

func TestInterMachineLatencyPlusTransfer(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, cfg(), 2, []int{0, 1})
	var at time.Duration
	f.Deliver(0, 1, 1_000_000, func() { at = k.Now() }) // 1 MB at 1 MB/s = 1s
	run(t, k, 5*time.Second)
	want := 10*time.Millisecond + time.Second
	if at != want {
		t.Errorf("inter delivery at %v, want %v", at, want)
	}
}

// TestIngressSerialization is the PS-hotspot mechanism: two senders on
// different machines target one machine; the second transfer must wait
// for the receiver NIC.
func TestIngressSerialization(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, cfg(), 3, []int{0, 1, 2})
	var t1, t2 time.Duration
	f.Deliver(0, 2, 1_000_000, func() { t1 = k.Now() })
	f.Deliver(1, 2, 1_000_000, func() { t2 = k.Now() })
	run(t, k, 10*time.Second)
	if t1 != 10*time.Millisecond+time.Second {
		t.Errorf("first delivery at %v", t1)
	}
	if t2 != t1+time.Second {
		t.Errorf("second delivery at %v, want %v (ingress serialized)", t2, t1+time.Second)
	}
}

// TestEgressSerialization: one machine sending two messages to two
// different machines serializes on its own NIC.
func TestEgressSerialization(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, cfg(), 3, []int{0, 1, 2})
	var t1, t2 time.Duration
	f.Deliver(0, 1, 1_000_000, func() { t1 = k.Now() })
	f.Deliver(0, 2, 1_000_000, func() { t2 = k.Now() })
	run(t, k, 10*time.Second)
	if t1 != 10*time.Millisecond+time.Second {
		t.Errorf("first delivery at %v", t1)
	}
	// Second transfer starts on egress at t=1s, arrives 10ms+1s later.
	if t2 != 2*time.Second+10*time.Millisecond {
		t.Errorf("second delivery at %v, want 2.01s (egress serialized)", t2)
	}
}

func TestIntraDoesNotOccupyNIC(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, cfg(), 3, []int{0, 0, 1})
	var intra, inter time.Duration
	f.Deliver(0, 1, 1_000_000, func() { intra = k.Now() }) // same machine
	f.Deliver(0, 2, 1_000_000, func() { inter = k.Now() })
	run(t, k, 10*time.Second)
	if intra > 5*time.Millisecond {
		t.Errorf("intra delivery slow: %v", intra)
	}
	if inter != 10*time.Millisecond+time.Second {
		t.Errorf("inter delivery at %v — intra traffic should not occupy the NIC", inter)
	}
}

func TestStatsCounting(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, cfg(), 3, []int{0, 0, 1})
	f.Deliver(0, 1, 100, func() {})
	f.Deliver(0, 2, 200, func() {})
	run(t, k, time.Minute)
	s := f.Stats()
	if s.Messages != 2 || s.Bytes != 300 {
		t.Errorf("stats %+v", s)
	}
	if s.InterMessages != 1 || s.InterBytes != 200 {
		t.Errorf("inter stats %+v", s)
	}
	if f.MachineOf(2) != 1 {
		t.Error("MachineOf")
	}
}

func TestNilPlacementSingleMachine(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, cfg(), 4, nil)
	var at time.Duration
	f.Deliver(0, 3, 1000, func() { at = k.Now() })
	run(t, k, time.Second)
	if at > 2*time.Millisecond {
		t.Errorf("nil placement should be intra-machine: %v", at)
	}
}

func TestPlacementLengthChecked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(sim.NewKernel(), cfg(), 3, []int{0})
}

// TestMachineBandwidthHeterogeneous prices transfers at the slow
// machine's NIC speed on its side only: a 10x-slower machine 1 affects
// 0→1 (slow ingress) and 1→2 (slow egress) but not 0→2.
func TestMachineBandwidthHeterogeneous(t *testing.T) {
	c := cfg()
	c.MachineBandwidth = []float64{0, 1e5} // machine 1: 0.1 MB/s; others default 1 MB/s
	const mb = 1_000_000

	deliver := func(src, dst int) time.Duration {
		k := sim.NewKernel()
		f := New(k, c, 3, []int{0, 1, 2})
		var at time.Duration
		f.Deliver(src, dst, mb, func() { at = k.Now() })
		run(t, k, time.Minute)
		return at
	}

	fast := 10*time.Millisecond + time.Second
	slow := 10*time.Millisecond + 10*time.Second
	if at := deliver(0, 2); at != fast {
		t.Errorf("0->2 (both fast) delivered at %v, want %v", at, fast)
	}
	if at := deliver(0, 1); at != slow {
		t.Errorf("0->1 (slow ingress) delivered at %v, want %v", at, slow)
	}
	if at := deliver(1, 2); at != slow {
		t.Errorf("1->2 (slow egress) delivered at %v, want %v", at, slow)
	}
}

// TestMachineBandwidthOccupiesNIC checks serialization uses the
// per-machine speed: two messages into the slow machine queue behind
// its slow ingress.
func TestMachineBandwidthOccupiesNIC(t *testing.T) {
	c := cfg()
	c.MachineBandwidth = []float64{0, 0, 1e5}
	k := sim.NewKernel()
	f := New(k, c, 3, []int{0, 1, 2})
	var t1, t2 time.Duration
	f.Deliver(0, 2, 1_000_000, func() { t1 = k.Now() })
	f.Deliver(1, 2, 1_000_000, func() { t2 = k.Now() })
	run(t, k, time.Minute)
	if t1 != 10*time.Millisecond+10*time.Second {
		t.Errorf("first delivery at %v", t1)
	}
	if t2 != t1+10*time.Second {
		t.Errorf("second delivery at %v, want %v (slow ingress serialized)", t2, t1+10*time.Second)
	}
}

// TestBurstDeterministic: the burst schedule is a pure function of the
// config — two fabrics with the same config deliver at identical
// times, and a different seed yields a different schedule.
func TestBurstDeterministic(t *testing.T) {
	burstCfg := func(seed int64) Config {
		c := cfg()
		c.Burst = &BurstConfig{Factor: 10, MeanOn: 500 * time.Millisecond, MeanOff: 500 * time.Millisecond, Seed: seed}
		return c
	}
	trace := func(c Config) []time.Duration {
		k := sim.NewKernel()
		f := New(k, c, 2, []int{0, 1})
		var at []time.Duration
		for i := 0; i < 20; i++ {
			f.Deliver(0, 1, 100_000, func() { at = append(at, k.Now()) })
		}
		run(t, k, time.Hour)
		return at
	}
	a, b := trace(burstCfg(1)), trace(burstCfg(1))
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("deliveries: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at message %d: %v vs %v", i, a[i], b[i])
		}
	}
	other := trace(burstCfg(2))
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different burst seeds produced identical schedules")
	}
}

// TestBurstSlowsTransfers: with bursts enabled, total transfer time
// grows and burst-degraded messages are counted; in-machine transfers,
// which cross no NIC, are untouched.
func TestBurstSlowsTransfers(t *testing.T) {
	c := cfg()
	c.Burst = &BurstConfig{Factor: 100, MeanOn: 10 * time.Second, MeanOff: time.Millisecond, Seed: 3}
	k := sim.NewKernel()
	f := New(k, c, 3, []int{0, 1, 1})
	var slow, fast time.Duration
	f.Deliver(0, 1, 1_000_000, func() { slow = k.Now() })
	f.Deliver(2, 1, 1_000_000, func() { fast = k.Now() })
	run(t, k, time.Hour)
	if fast != 2*time.Millisecond {
		t.Errorf("in-machine transfer delivered at %v, want 2ms", fast)
	}
	// With MeanOff=1ms and MeanOn=10s, machine 1 is almost surely
	// degraded when reception starts; 100x slower = ~100s.
	if slow < 10*time.Second {
		t.Errorf("burst-degraded delivery at %v, want far beyond 1.01s", slow)
	}
	if f.Stats().BurstMessages == 0 {
		t.Error("no burst-degraded messages counted")
	}
}

// TestBurstNonMonotonicQueries: the egress and ingress timelines query
// the same machine's schedule at out-of-order times; a late query must
// not consume (and so hide) the degraded windows an earlier-time query
// falls into.
func TestBurstNonMonotonicQueries(t *testing.T) {
	c := cfg()
	c.Burst = &BurstConfig{Factor: 10, MeanOn: time.Second, MeanOff: time.Second, Seed: 9}
	k := sim.NewKernel()
	f := New(k, c, 2, []int{0, 1})
	st := f.bursts[0]

	// Find a degraded window by scanning, then ask about a far-future
	// time first and the in-window time second.
	var inWindow time.Duration = -1
	for d := time.Duration(0); d < 30*time.Second; d += 10 * time.Millisecond {
		if st.bursting(c.Burst, d) {
			inWindow = d
			break
		}
	}
	if inWindow < 0 {
		t.Fatal("no degraded window in 30s with mean on/off of 1s")
	}
	fresh := New(sim.NewKernel(), c, 2, []int{0, 1})
	fresh.bursts[0].bursting(c.Burst, time.Hour) // far-future query first
	if !fresh.bursts[0].bursting(c.Burst, inWindow) {
		t.Errorf("window at %v disappeared after querying t=1h first", inWindow)
	}
}

// TestBurstConfigValidated: an ineffective burst config must panic at
// construction, not silently run a uniform network.
func TestBurstConfigValidated(t *testing.T) {
	build := func(b BurstConfig) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		c := cfg()
		c.Burst = &b
		New(sim.NewKernel(), c, 2, []int{0, 1})
		return false
	}
	if !build(BurstConfig{Factor: 1, MeanOn: time.Second, MeanOff: time.Second}) {
		t.Error("factor <= 1 accepted")
	}
	if !build(BurstConfig{Factor: 10, MeanOn: 2, MeanOff: 6}) {
		t.Error("nanosecond-scale means accepted (would generate billions of windows)")
	}
	if build(BurstConfig{Factor: 10, MeanOn: time.Second, MeanOff: time.Second}) {
		t.Error("valid burst config rejected")
	}
}

// TestConfigIsZero pins the zero-config check Run paths rely on.
func TestConfigIsZero(t *testing.T) {
	var c Config
	if !c.IsZero() {
		t.Error("zero Config should be IsZero")
	}
	c2 := Default1GbE()
	if c2.IsZero() {
		t.Error("Default1GbE should not be IsZero")
	}
	c3 := Config{MachineBandwidth: []float64{1}}
	if c3.IsZero() {
		t.Error("MachineBandwidth set should not be IsZero")
	}
	c4 := Config{Burst: &BurstConfig{}}
	if c4.IsZero() {
		t.Error("Burst set should not be IsZero")
	}
}

func TestDefault1GbE(t *testing.T) {
	c := Default1GbE()
	if c.Inter.Bandwidth != 125e6 {
		t.Errorf("1GbE bandwidth %g", c.Inter.Bandwidth)
	}
	if c.Intra.Bandwidth <= c.Inter.Bandwidth {
		t.Error("intra should be faster than inter")
	}
}

// BenchmarkDeliverDrain is the shape of the benchmark's netsim.deliver_ns
// probe: one proc prices a run of cross-machine messages toward one
// machine, then the kernel drains them.
func BenchmarkDeliverDrain(b *testing.B) {
	const msgs = 20000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		f := New(k, Default1GbE(), 2, []int{0, 1})
		k.Spawn("sender", func(*sim.Proc) {
			for j := 0; j < msgs; j++ {
				f.Deliver(0, 1, 16384, func() {})
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*msgs), "ns/msg")
}

// BenchmarkDeliverSteady is the fabric's share of a 1024-worker ring
// run, without the workers: every round each worker sends its two
// neighbors one typed update (one in four crosses machines), and the
// kernel delivers the 2048 in flight before the next round.
func BenchmarkDeliverSteady(b *testing.B) {
	const workers, perMachine = 1024, 8
	placement := make([]int, workers)
	for w := range placement {
		placement[w] = w / perMachine
	}
	k := sim.NewKernel()
	f := New(k, Default1GbE(), workers, placement)
	delivered := 0
	f.Handle(func(Message) { delivered++ })
	rounds := b.N/(2*workers) + 1
	k.Spawn("tx", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			for w := 0; w < workers; w++ {
				f.DeliverData(16384, Message{From: w, Dst: (w + 1) % workers, Iter: r})
				f.DeliverData(16384, Message{From: w, Dst: (w + workers - 1) % workers, Iter: r})
			}
			p.Sleep(100 * time.Millisecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if delivered != rounds*2*workers {
		b.Fatalf("delivered %d of %d messages", delivered, rounds*2*workers)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(delivered), "ns/msg")
}

// TestDeliveriesFireInTimeThenPricingOrder drives the sharded queue
// through what its lazy heads heap must survive: intra-machine
// messages of mixed sizes overtake each other inside a shard (a new
// earlier head supersedes a recorded one), shards interleave, a
// callback enqueues more, and many arrivals tie. Every delivery fires,
// in arrival-time order, ties in the order they were priced.
func TestDeliveriesFireInTimeThenPricingOrder(t *testing.T) {
	const workers, machines, sends = 12, 4, 600
	placement := make([]int, workers)
	for w := range placement {
		placement[w] = w % machines
	}
	k := sim.NewKernel()
	f := New(k, cfg(), workers, placement)
	type arrival struct {
		at    time.Duration
		order int // pricing order
	}
	var got []arrival
	priced := 0
	rng := rand.New(rand.NewSource(5))
	var send func(src, dst, bytes int, again bool)
	send = func(src, dst, bytes int, again bool) {
		order := priced
		priced++
		f.Deliver(src, dst, bytes, func() {
			got = append(got, arrival{k.Now(), order})
			if again {
				send(dst, src, 10, false) // a delivery that sends
			}
		})
	}
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < sends; i++ {
			src, dst := rng.Intn(workers), rng.Intn(workers)
			// Large then small on one link: the small one overtakes.
			send(src, dst, []int{1_000_000, 10, 10, 50_000}[i%4], i%7 == 0)
			if i%5 == 0 {
				p.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
		}
	})
	run(t, k, time.Hour)
	if len(got) != priced {
		t.Fatalf("%d of %d deliveries fired", len(got), priced)
	}
	ties := 0
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.at < a.at {
			t.Fatalf("delivery %d fired at %v after one at %v", i, b.at, a.at)
		}
		if b.at == a.at {
			ties++
			if b.order < a.order {
				t.Fatalf("same-instant deliveries fired out of pricing order: %d before %d", a.order, b.order)
			}
		}
	}
	if ties == 0 {
		t.Error("no same-instant deliveries; the tie-break went untested")
	}
}

// TestSupersededDrainTimersDie: a message that arrives before the
// queue's head arms an earlier drain timer, and the later one it
// supersedes still fires. That one must return without re-arming;
// otherwise it starts a second chain of drains that fire with nothing
// due, and the chains multiply while the queue stays nonempty. Here
// every step sends a slow inter-machine message (11.9 ms) and a fast
// intra-machine one (1 ms) that arrives before the head, so every step
// supersedes a timer. The queue arms at most one timer per push and one
// per drain that delivers, so twice the deliveries bound the firings.
func TestSupersededDrainTimersDie(t *testing.T) {
	const steps = 200
	k := sim.NewKernel()
	f := New(k, cfg(), 3, []int{0, 1, 0})
	fired, drain := 0, f.eq.drainFn
	f.eq.drainFn = func() { fired++; drain() }
	delivered := 0
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < steps; i++ {
			f.Deliver(0, 1, 1900, func() { delivered++ })
			f.Deliver(0, 2, 1, func() { delivered++ })
			p.Sleep(2 * time.Millisecond)
		}
	})
	run(t, k, time.Second)
	if delivered != 2*steps {
		t.Fatalf("%d of %d deliveries fired", delivered, 2*steps)
	}
	if fired > 2*delivered {
		t.Errorf("%d drain timers fired for %d deliveries, want at most %d", fired, delivered, 2*delivered)
	}
}
