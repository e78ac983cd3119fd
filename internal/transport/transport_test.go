package transport

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hop/internal/chaos"
	"hop/internal/counters"
	"hop/internal/leaktest"
)

func TestRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var got []Message
	rx, err := Listen(1, "127.0.0.1:0", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	tx, err := Listen(0, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	if err := tx.Dial(1, rx.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	want := Message{Kind: KindUpdate, Iter: 7, Params: []float64{1.5, -2.5}}
	if err := tx.Send(1, want); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("message never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	m := got[0]
	if m.From != 0 || m.Iter != 7 || m.Kind != KindUpdate {
		t.Errorf("message %+v", m)
	}
	if len(m.Params) != 2 || m.Params[0] != 1.5 || m.Params[1] != -2.5 {
		t.Errorf("params %v", m.Params)
	}
}

func TestOrderedDeliveryPerPeer(t *testing.T) {
	var mu sync.Mutex
	var iters []int
	rx, err := Listen(1, "127.0.0.1:0", func(m Message) {
		mu.Lock()
		iters = append(iters, m.Iter)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := Listen(0, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if err := tx.Dial(1, rx.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := tx.Send(1, Message{Kind: KindToken, Iter: i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		c := len(iters)
		mu.Unlock()
		if c == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d arrived", c, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if iters[i] != i {
			t.Fatalf("out of order at %d: %d", i, iters[i])
		}
	}
}

func TestSendWithoutConnection(t *testing.T) {
	n, err := Listen(0, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Send(5, Message{}); err == nil {
		t.Error("send to unconnected peer should fail")
	}
}

func TestDialTimeout(t *testing.T) {
	n, err := Listen(0, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	start := time.Now()
	// 203.0.113.0/24 is TEST-NET-3: never routable.
	if err := n.Dial(1, "127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("dial to closed port should fail")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("dial retried far past its timeout")
	}
}

// TestCloseIdempotentAndStopsAccept: Close may be called twice, and
// once both ends of a connection are closed no goroutine of either
// node — accept loop, reader, writer — is left running.
func TestCloseIdempotentAndStopsAccept(t *testing.T) {
	defer leaktest.Check(t, 0)()
	n, err := Listen(0, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if n.ID() != 0 {
		t.Error("ID")
	}
	peer, err := Listen(1, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Dial(1, peer.Addr(), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, Message{Kind: KindToken, Iter: 1}); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close() // must not panic or hang
	peer.Close()
}

func TestConcurrentSendersSafe(t *testing.T) {
	var count int
	var mu sync.Mutex
	rx, err := Listen(1, "127.0.0.1:0", func(Message) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := Listen(0, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if err := tx.Dial(1, rx.Addr(), time.Second); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := tx.Send(1, Message{Kind: KindToken, Iter: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c == 400 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d of 400 messages", c)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentKindsToTwoPeers drives both outboxes hard from many
// goroutines while chunked updates of one shared vector — so the two
// peers ride each other's encodes — interleave with control frames on
// the same connections. Under -race (the CI test mode) this fails if
// an outbox buffer or a shared payload is ever touched by a sender
// while a writer still references it; without -race it still verifies
// that every message arrives intact.
func TestConcurrentKindsToTwoPeers(t *testing.T) {
	type rxCount struct {
		mu         sync.Mutex
		tokens, up int
	}
	newRx := func(id int) (*Node, *rxCount) {
		var c rxCount
		n, err := Listen(id, "127.0.0.1:0", func(m Message) {
			c.mu.Lock()
			switch m.Kind {
			case KindToken:
				c.tokens++
			case KindUpdate:
				c.up++
			}
			c.mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, &c
	}
	rx1, c1 := newRx(1)
	defer rx1.Close()
	rx2, c2 := newRx(2)
	defer rx2.Close()
	tx, err := Listen(0, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if err := tx.Dial(1, rx1.Addr(), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tx.Dial(2, rx2.Addr(), time.Second); err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 8, 60
	// Updates span several frames, so the writers re-drain the control
	// frames between them.
	params := make([]float64, 2*maxChunk/8+64) // 3 chunks
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := 1 + g%2
			for i := 0; i < perG; i++ {
				var err error
				if i%2 == 0 {
					err = tx.Send(dst, Message{Kind: KindToken, Iter: i})
				} else {
					err = tx.Send(dst, Message{Kind: KindUpdate, Iter: i, Params: params})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	wantTokens := goroutines / 2 * perG / 2
	wantUp := wantTokens
	deadline := time.Now().Add(5 * time.Second)
	for {
		c1.mu.Lock()
		t1, u1 := c1.tokens, c1.up
		c1.mu.Unlock()
		c2.mu.Lock()
		t2, u2 := c2.tokens, c2.up
		c2.mu.Unlock()
		if t1 == wantTokens && u1 == wantUp && t2 == wantTokens && u2 == wantUp {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer1 got tokens=%d updates=%d, peer2 tokens=%d updates=%d (want %d/%d each)",
				t1, u1, t2, u2, wantTokens, wantUp)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A dial whose budget is spent before its first attempt fails with an
// error (live's probe dials with whatever its budget has left).
func TestDialWithSpentBudgetFails(t *testing.T) {
	rx, err := Listen(1, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := Listen(0, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if err := tx.Dial(1, rx.Addr(), 0); err == nil {
		t.Fatal("Dial with no time left reported success")
	}
}

// TestCloseSendsKeepsReceiving: after CloseSends the peer hears a
// goodbye behind every frame sent before it, while the closed node's
// own listener and readers keep delivering; sending and dialing fail.
func TestCloseSendsKeepsReceiving(t *testing.T) {
	defer leaktest.Check(t, 0)()
	type event struct {
		down bool
		err  error
		m    Message
	}
	var mu sync.Mutex
	var bEvents []event
	var aGot []Message
	a, err := Listen(0, "127.0.0.1:0", func(m Message) {
		mu.Lock()
		aGot = append(aGot, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenConfig(1, "127.0.0.1:0", func(m Message) {
		mu.Lock()
		bEvents = append(bEvents, event{m: m})
		mu.Unlock()
	}, Config{OnPeerDown: func(peer int, err error) {
		mu.Lock()
		bEvents = append(bEvents, event{down: true, err: err})
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Dial(1, b.Addr(), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Dial(0, a.Addr(), time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send(1, Message{Kind: KindToken, Iter: i}); err != nil {
			t.Fatal(err)
		}
	}
	a.CloseSends()
	if err := a.Send(1, Message{Kind: KindToken, Iter: 99}); err == nil {
		t.Error("Send after CloseSends succeeded")
	}
	if err := a.Dial(1, b.Addr(), time.Second); err == nil {
		t.Error("Dial after CloseSends succeeded")
	}
	if err := b.Send(0, Message{Kind: KindToken, Iter: 7}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		nb, na := len(bEvents), len(aGot)
		mu.Unlock()
		if nb == 11 && na == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("b saw %d events (want 10 tokens then the goodbye), a got %d messages (want 1)", nb, na)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, e := range bEvents[:10] {
		if e.down || e.m.Iter != i {
			t.Fatalf("event %d is %+v, want token %d", i, e, i)
		}
	}
	if last := bEvents[10]; !last.down || last.err != nil {
		t.Errorf("last event %+v, want a goodbye (peer down, nil error)", last)
	}
	if aGot[0].Kind != KindToken || aGot[0].Iter != 7 {
		t.Errorf("a received %v after CloseSends, want token{iter:7}", aGot[0])
	}
}

// TestCloseSendsDeliversARetransmittedUpdate: an update sent just
// before CloseSends arrives even when the chaos injector holds it in
// retransmission longer than the drain deadline: the deadline bounds
// the socket write, not the injected delay before it. Each try is its
// own pair of nodes, the tries run side by side, and at drop 0.9 most
// frames wait out several retransmissions.
func TestCloseSendsDeliversARetransmittedUpdate(t *testing.T) {
	defer leaktest.Check(t, 0)()
	const tries = 20
	var dropped atomic.Int64
	var wg sync.WaitGroup
	for try := 0; try < tries; try++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			got := make(chan Message, 1)
			rx, err := Listen(1, "127.0.0.1:0", func(m Message) { got <- m })
			if err != nil {
				t.Error(err)
				return
			}
			defer rx.Close()
			tx, err := ListenConfig(0, "127.0.0.1:0", func(Message) {}, Config{Chaos: &chaos.Config{Drop: 0.9, Seed: seed}})
			if err != nil {
				t.Error(err)
				return
			}
			defer tx.Close()
			if err := tx.Dial(1, rx.Addr(), time.Second); err != nil {
				t.Error(err)
				return
			}
			if err := tx.Send(1, Message{Kind: KindUpdate, Iter: 3, Params: []float64{1, 2}}); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(10 * time.Millisecond) // the writer took the update before the close
			tx.CloseSends()
			dropped.Add(tx.Stats().ChaosDropped)
			select {
			case m := <-got:
				if m.Iter != 3 || len(m.Params) != 2 {
					t.Errorf("seed %d: received %v, want the update of iteration 3", seed, m)
				}
			case <-time.After(time.Second):
				t.Errorf("seed %d: the update sent before CloseSends never arrived (%d drops)", seed, tx.Stats().ChaosDropped)
			}
		}(int64(try + 1))
	}
	wg.Wait()
	// A retransmission meets the drop draw again: at drop 0.9 a frame
	// is dropped nine times on average, not at most once.
	if d := dropped.Load(); d <= tries {
		t.Errorf("%d drops over %d frames: no retransmission was dropped again", d, tries)
	}
}

// TestStatsAddCoversEveryField fills every counter of two nodes, chaos
// counters included, with distinct values, snapshots them with
// Node.Stats and merges the snapshots as a cluster's WireStats does: a
// field the snapshot or the merge leaves out — such as one added to
// Stats later — reads wrong.
func TestStatsAddCoversEveryField(t *testing.T) {
	var a, b Node
	va, vb := reflect.ValueOf(&a.st).Elem(), reflect.ValueOf(&b.st).Elem()
	for i := 0; i < va.NumField(); i++ {
		if k := va.Field(i).Kind(); k != reflect.Int64 {
			t.Fatalf("Stats field %s has kind %v; a wire counter is an int64", va.Type().Field(i).Name, k)
		}
		va.Field(i).SetInt(int64(1 + i))
		vb.Field(i).SetInt(int64(100 + i))
	}
	if got := a.Stats(); got != a.st {
		t.Errorf("Node.Stats = %+v, want %+v", got, a.st)
	}
	sum := a.Stats()
	counters.Add(&sum, b.Stats())
	vs := reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		if got, want := vs.Field(i).Int(), va.Field(i).Int()+vb.Field(i).Int(); got != want {
			t.Errorf("Add: %s = %d, want %d", vs.Type().Field(i).Name, got, want)
		}
	}
}

// TestChaosFateKeys: the injector keys each frame's fate by its header
// and its connection — a Dial's new connection meets fresh fates, and
// heartbeats, which carry no iteration, by the connection's heartbeat
// count — and never duplicates a chunk of a multi-chunk update.
func TestChaosFateKeys(t *testing.T) {
	defer leaktest.Check(t, 0)()
	// The injector keys a frame by its kind byte, the simulator by
	// these names: a message meets one fate on both planes.
	if chaos.Kind(frameUpdate) != chaos.Update || chaos.Kind(frameToken) != chaos.Token ||
		chaos.Kind(frameHeartbeat) != chaos.Heartbeat {
		t.Fatal("chaos.Kind and the frame kinds disagree")
	}
	rx, err := Listen(1, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := ListenConfig(0, "127.0.0.1:0", func(Message) {}, Config{Chaos: &chaos.Config{Duplicate: 0.5, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	var conns []*peer
	for i := 0; i < 2; i++ {
		if err := tx.Dial(1, rx.Addr(), time.Second); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, tx.peer(1))
	}
	// dups passes 64 frames built by h through p's injector and reports
	// which were duplicated.
	dups := func(p *peer, h func(i int) frameHeader) (out [64]bool) {
		for i := range out {
			_, frames := tx.inject(p, 1, nil, 0, appendFrame(nil, h(i), nil))
			out[i] = frames == 2
		}
		return out
	}
	token := func(i int) frameHeader { return frameHeader{kind: frameToken, iter: int32(i)} }
	if dups(conns[0], token) == dups(conns[1], token) {
		t.Error("a frame meets the same fate on a redialed connection")
	}
	beats := dups(conns[0], func(int) frameHeader { return frameHeader{kind: frameHeartbeat} })
	if n := count(beats[:]); n == 0 || n == len(beats) {
		t.Errorf("%d of %d heartbeats duplicated: every heartbeat meets one fate", n, len(beats))
	}
	chunked := dups(conns[0], func(i int) frameHeader {
		return frameHeader{kind: frameUpdate, chunkCount: 2, iter: int32(i)}
	})
	if n := count(chunked[:]); n != 0 {
		t.Errorf("%d chunks of multi-chunk updates duplicated", n)
	}
}

func count(bs []bool) (n int) {
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
