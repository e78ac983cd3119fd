package live

// Liveness-layer tests: the heartbeat failure detector on real TCP.
// The central adversary here is the stall — a peer that stops sending
// without ever closing its socket (FIN), the way a partitioned or
// wedged machine looks from the outside. TCP alone never reports it;
// only the receive-deadline detector can. The stallProxy below
// manufactures exactly that: it forwards bytes between a dialer and a
// real worker until told to stall, after which it keeps every socket
// open but forwards nothing (new connections are admitted and left
// hanging mid-handshake, like a blackholed route). It never closes a
// connection on its own — EOF from one side is deliberately not
// propagated — so everything the workers learn, they learn from
// timeouts.

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hop/internal/core"
	"hop/internal/graph"
)

type stallProxy struct {
	ln      net.Listener
	target  string
	mu      sync.Mutex
	cond    *sync.Cond
	stalled bool
	closed  bool
	clients []net.Conn // dialer-facing sockets
	ups     []net.Conn // target-facing sockets
}

// newStallProxy listens on loopback and forwards every connection to
// target. Registered cleanup closes all sockets at test end.
func newStallProxy(t *testing.T, target string) *stallProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallProxy{ln: ln, target: target}
	p.cond = sync.NewCond(&p.mu)
	go p.acceptLoop()
	t.Cleanup(p.close)
	return p
}

func (p *stallProxy) addr() string { return p.ln.Addr().String() }

func (p *stallProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			return
		}
		p.clients = append(p.clients, c)
		p.mu.Unlock()
		go p.serve(c)
	}
}

// serve connects a client to the target. A connection arriving while
// stalled is admitted but not forwarded: the dialer's handshake hangs
// until its own deadline — no RST, no FIN, like a blackholed route.
func (p *stallProxy) serve(client net.Conn) {
	if !p.gate() {
		return
	}
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		up.Close()
		return
	}
	p.ups = append(p.ups, up)
	p.mu.Unlock()
	go p.pump(up, client)
	go p.pump(client, up)
}

// pump copies src to dst, pausing (with the bytes in hand) while
// stalled. EOF is not propagated: a stalled peer must never FIN.
func (p *stallProxy) pump(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.gate() {
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// gate blocks while stalled; false means the proxy closed.
func (p *stallProxy) gate() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.stalled && !p.closed {
		p.cond.Wait()
	}
	return !p.closed
}

func (p *stallProxy) stall() {
	p.mu.Lock()
	p.stalled = true
	p.mu.Unlock()
}

func (p *stallProxy) resume() {
	p.mu.Lock()
	p.stalled = false
	p.cond.Broadcast()
	p.mu.Unlock()
}

// killClients hard-closes the dialer-facing sockets only, leaving the
// target side open — the dialer's next write fails while the target
// sees nothing.
func (p *stallProxy) killClients() {
	p.mu.Lock()
	conns := p.clients
	p.clients = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (p *stallProxy) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	conns := append(append([]net.Conn(nil), p.clients...), p.ups...)
	p.clients, p.ups = nil, nil
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// buildWorkers creates (but does not connect) one worker per node of g
// and returns them with their real listen addresses.
func buildWorkers(t *testing.T, g *graph.Graph, mk func(i int) WorkerConfig) ([]*Worker, map[int]string) {
	t.Helper()
	n := g.N()
	workers := make([]*Worker, n)
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		cfg := mk(i)
		cfg.ID = i
		cfg.Graph = g
		cfg.ListenAddr = "127.0.0.1:0"
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		workers[i] = w
		addrs[i] = w.Addr()
	}
	t.Cleanup(func() {
		for _, w := range workers {
			w.Close()
		}
	})
	return workers, addrs
}

// runWorkers starts every worker's Run concurrently and returns one
// result channel per worker.
func runWorkers(workers []*Worker) []chan error {
	chans := make([]chan error, len(workers))
	for i, w := range workers {
		ch := make(chan error, 1)
		chans[i] = ch
		go func(w *Worker, ch chan error) {
			_, err := w.Run()
			ch <- err
		}(w, ch)
	}
	return chans
}

func waitRun(t *testing.T, name string, ch chan error, timeout time.Duration) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(timeout):
		t.Fatalf("%s did not return within %v", name, timeout)
		return nil
	}
}

// lineLogger is a Logger that keeps every line, so a test can count
// the failure detector's transitions.
type lineLogger struct {
	mu    sync.Mutex
	lines []string
}

func (l *lineLogger) Printf(format string, v ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, v...))
	l.mu.Unlock()
}

// count returns how many lines contain word.
func (l *lineLogger) count(word string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, word) {
			n++
		}
	}
	return n
}

// TestLiveStallSuspectsThenHeals: a mid-run stall of one direction of
// a pair — longer than the read deadline, shorter than the read
// deadline plus the suspect budget — must trip the failure detector
// ("suspected") and then clear it ("healed") once traffic resumes,
// with zero membership events: a transient stall is detector state,
// never a declaration.
func TestLiveStallSuspectsThenHeals(t *testing.T) {
	g := graph.Chain(2)
	log0 := &lineLogger{}
	workers, addrs := buildWorkers(t, g, func(i int) WorkerConfig {
		cfg := WorkerConfig{
			Config: core.Config{
				MaxIter: 60, Seed: 1,
				FaultTolerance: true,
			},
			Trainer:      quadStart(i),
			Logger:       NopLogger(),
			Trace:        core.NewTrace(),
			ComputeDelay: func(int) time.Duration { return 10 * time.Millisecond },
		}
		if i == 0 {
			cfg.Logger = log0
		}
		return cfg
	})

	// Worker 1 reaches worker 0 through the proxy, so stalling it
	// silences everything worker 0 hears from worker 1 — updates and
	// heartbeats both — while every socket stays open.
	proxy := newStallProxy(t, addrs[0])
	addrs1 := map[int]string{0: proxy.addr(), 1: addrs[1]}
	if err := workers[0].Connect(addrs, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := workers[1].Connect(addrs1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	chans := runWorkers(workers)
	time.Sleep(80 * time.Millisecond)
	proxy.stall()
	// Worker 0 suspects worker 1 once the read deadline (1.5s) passes
	// with nothing heard, and would declare it only after a further
	// suspect budget (1s) of failed probes, at 2.5s. A 2s stall ends
	// halfway between the two.
	time.Sleep(2 * time.Second)
	proxy.resume()

	for i, ch := range chans {
		if err := waitRun(t, "worker "+string(rune('0'+i)), ch, 20*time.Second); err != nil {
			t.Fatalf("worker %d run: %v", i, err)
		}
	}
	if log0.count("suspected") == 0 {
		t.Error("stall past the receive deadline never raised suspicion")
	}
	if log0.count("healed") == 0 {
		t.Error("resumed traffic never healed the suspicion")
	}
	for i, w := range workers {
		if got := w.Trace().MembershipString(); got != "" {
			t.Errorf("worker %d membership %q after a healed stall, want none", i, got)
		}
	}
}

// TestLiveStallPastBudgetDeclaresDead: worker 2's every link runs
// through proxies that stall forever — it keeps all sockets open and
// never FINs, so only the receive-deadline detector and the probe
// budget can unmask it. Workers 0 and 1 must declare it dead (D
// events) and finish together; worker 2 symmetrically declares them
// and finishes alone.
func TestLiveStallPastBudgetDeclaresDead(t *testing.T) {
	g := graph.Ring(3)
	workers, addrs := buildWorkers(t, g, func(i int) WorkerConfig {
		return WorkerConfig{
			Config: core.Config{
				MaxIter: 40, Seed: 1,
				FaultTolerance: true,
			},
			Trainer:      quadStart(i),
			Logger:       NopLogger(),
			Trace:        core.NewTrace(),
			ComputeDelay: func(int) time.Duration { return 5 * time.Millisecond },
		}
	})

	// Both directions of every link touching worker 2 are proxied:
	// what 0 and 1 hear from 2, and what 2 hears from them. The 0–1
	// link stays direct and healthy.
	toTwo := newStallProxy(t, addrs[2])
	toZero := newStallProxy(t, addrs[0])
	toOne := newStallProxy(t, addrs[1])
	addrsFor := []map[int]string{
		{0: addrs[0], 1: addrs[1], 2: toTwo.addr()},
		{0: addrs[0], 1: addrs[1], 2: toTwo.addr()},
		{0: toZero.addr(), 1: toOne.addr(), 2: addrs[2]},
	}
	for i, w := range workers {
		if err := w.Connect(addrsFor[i], 5*time.Second); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}

	chans := runWorkers(workers)
	time.Sleep(80 * time.Millisecond)
	toTwo.stall()
	toZero.stall()
	toOne.stall()
	// Never resumed: detection must come from timeouts alone, a read
	// deadline (1.5s) and then a suspect budget (1s) after the stall.

	for i, ch := range chans {
		if err := waitRun(t, "worker "+string(rune('0'+i)), ch, 30*time.Second); err != nil {
			t.Fatalf("worker %d run: %v", i, err)
		}
	}
	for _, i := range []int{0, 1} {
		if got := workers[i].Trace().MembershipString(); !strings.Contains(got, "D2@") {
			t.Errorf("worker %d membership %q, want the stalled peer declared (D2)", i, got)
		}
	}
	got2 := workers[2].Trace().MembershipString()
	if !strings.Contains(got2, "D0@") || !strings.Contains(got2, "D1@") {
		t.Errorf("worker 2 membership %q, want both unreachable peers declared", got2)
	}
}

// TestLiveSendFailureFailsFastWithoutTolerance: on a cluster without
// fault tolerance, a failed send must surface the transport error from
// Run promptly — the old behavior logged it and kept waiting, wedging
// the run forever (the peer never learns anything went wrong).
func TestLiveSendFailureFailsFastWithoutTolerance(t *testing.T) {
	g := graph.Chain(2)
	workers, addrs := buildWorkers(t, g, func(i int) WorkerConfig {
		return WorkerConfig{
			Config:       core.Config{MaxIter: 500, Seed: 1},
			Trainer:      quadStart(i),
			Logger:       NopLogger(),
			ComputeDelay: func(int) time.Duration { return 2 * time.Millisecond },
		}
	})

	proxy := newStallProxy(t, addrs[0])
	addrs1 := map[int]string{0: proxy.addr(), 1: addrs[1]}
	if err := workers[0].Connect(addrs, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := workers[1].Connect(addrs1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	chans := runWorkers(workers)
	time.Sleep(100 * time.Millisecond)
	// Kill only worker 1's side of its connection to worker 0: worker
	// 0 sees nothing, so the only escape is worker 1's own write
	// failing loudly.
	killed := time.Now()
	proxy.killClients()

	err := waitRun(t, "worker 1", chans[1], 10*time.Second)
	if err == nil {
		t.Fatal("send failure without fault tolerance reported success")
	}
	if !strings.Contains(err.Error(), "worker 1") {
		t.Errorf("error %q does not name the failing worker", err)
	}
	if elapsed := time.Since(killed); elapsed > 5*time.Second {
		t.Errorf("failure took %v to surface, want prompt", elapsed)
	}
	// The survivor is wedged waiting on updates that will never come —
	// that is the orchestrator's (RunCluster's) problem; release it.
	workers[0].Abort()
	waitRun(t, "worker 0", chans[0], 10*time.Second)
}
