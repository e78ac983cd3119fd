package core

// Runtime.Observe is the one place a worker's decisions leave the
// protocol: every event the decision trace records reaches the runtime
// too, in the same order, and telling the runtime costs nothing when
// tracing is off.

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"hop/internal/graph"
	"hop/internal/model"
	"hop/internal/tensor"
)

// mesh is an in-process cluster under one monitor: every worker's
// protocol, resolved at delivery time so a restarted worker's messages
// reach its new instance.
type mesh struct {
	mon    *SyncMonitor
	mu     sync.Mutex
	protos []*Protocol
}

func (m *mesh) at(w int) *Protocol {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.protos[w]
}

func (m *mesh) set(w int, p *Protocol) {
	m.mu.Lock()
	m.protos[w] = p
	m.mu.Unlock()
}

// recordRuntime is worker w's Runtime on a mesh: messages go straight
// into the destination's protocol, Observe logs each decision, and
// gate, when set, runs before each gradient step — how a test holds a
// worker back.
type recordRuntime struct {
	m    *mesh
	w    int
	gate func(iter int)
	sent func() // called after each delivered Send

	mu       sync.Mutex
	changed  *sync.Cond // on mu, broadcast by Observe
	seen     []TraceEvent
	iterated []int
}

func (r *recordRuntime) Compute(iter int, fn func()) {
	if r.gate != nil {
		r.gate(iter)
	}
	fn()
}

func (r *recordRuntime) EndCompute() {}

// Iterated logs each finished iteration beside the decisions.
func (r *recordRuntime) Iterated(iter int, _ float64) {
	r.mu.Lock()
	r.iterated = append(r.iterated, iter)
	r.mu.Unlock()
}

func (r *recordRuntime) Send(dst int, u Update) {
	u.Params = tensor.Clone(u.Params)
	r.m.at(dst).Deliver(u)
	if r.sent != nil {
		r.sent()
	}
}

func (r *recordRuntime) GrantTokens(dst, iter int) { r.m.at(dst).DeliverTokens(r.w, iter) }

func (r *recordRuntime) PeerIter(int) int { return -1 }

func (r *recordRuntime) GetParams(n int) []float64 { return make([]float64, n) }

func (r *recordRuntime) RecycleParams([]float64) {}

// Observe copies Members: the slice is the protocol's own.
func (r *recordRuntime) Observe(e TraceEvent) {
	if e.Members != nil {
		e.Members = append([]int(nil), e.Members...)
	}
	r.mu.Lock()
	r.seen = append(r.seen, e)
	r.changed.Broadcast()
	r.mu.Unlock()
}

// awaitDeath blocks until this worker has applied peer's death.
func (r *recordRuntime) awaitDeath(peer int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		for _, e := range r.seen {
			if e.Kind == TraceDeath && e.From == peer {
				return
			}
		}
		r.changed.Wait()
	}
}

func (r *recordRuntime) finished() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.iterated...)
}

func (r *recordRuntime) observed() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TraceEvent(nil), r.seen...)
}

// runMesh runs one protocol per worker of cfg's graph on its own
// goroutine, each with a trace and a recordRuntime shaped by setup. A
// worker halted by its scheduled fault is declared dead at its peers
// and, when its schedule says so, restarted from cfg.Restarted() with
// the same trainer, trace and runtime as soon as every peer has applied
// the death — an announcement any earlier would cancel it.
func runMesh(t *testing.T, cfg Config, setup func(*recordRuntime)) ([]*recordRuntime, []*Trace) {
	t.Helper()
	n := cfg.Graph.N()
	m := &mesh{mon: NewSyncMonitor(), protos: make([]*Protocol, n)}
	rts := make([]*recordRuntime, n)
	trs := make([]*Trace, n)
	trainers := make([]model.Trainer, n)
	build := func(c Config, w int) (*Protocol, error) {
		return NewProtocol(c, w, trainers[w], m.mon, rts[w], trs[w])
	}
	for w := 0; w < n; w++ {
		rts[w] = &recordRuntime{m: m, w: w}
		rts[w].changed = sync.NewCond(&rts[w].mu)
		setup(rts[w])
		trs[w] = NewTrace()
		trainers[w] = model.NewFrozen([]float64{1})
		p, err := build(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		m.protos[w] = p
	}
	errs := make(chan error, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			err := m.at(w).Run()
			if errors.Is(err, ErrCrashed) {
				for _, j := range cfg.ProtocolPeers(w) {
					m.at(j).DeclarePeerDead(w)
				}
				if cfg.Faults[w].RestartAfter > 0 {
					for _, j := range cfg.ProtocolPeers(w) {
						rts[j].awaitDeath(w)
					}
					p, berr := build(cfg.Restarted(), w)
					if berr != nil {
						errs <- berr
						return
					}
					m.set(w, p)
					err = p.Run()
				}
			}
			errs <- err
		}(w)
	}
	for w := 0; w < n; w++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("mesh did not finish")
		}
	}
	return rts, trs
}

// checkObserved asserts that every worker's runtime saw exactly its
// trace's events, in order, and was told of exactly the iterations the
// trace advanced into — a crashed worker's halting iteration and a
// jump's skipped ones are never entered — and returns the kinds seen.
func checkObserved(t *testing.T, rts []*recordRuntime, trs []*Trace) map[TraceKind]bool {
	t.Helper()
	kinds := map[TraceKind]bool{}
	for w := range rts {
		got, want := rts[w].observed(), trs[w].Events()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d: Observe saw %v, trace recorded %v", w, got, want)
		}
		var entered []int
		for _, e := range want {
			kinds[e.Kind] = true
			if e.Kind == TraceAdvance {
				entered = append(entered, e.Iter)
			}
		}
		if iterated := rts[w].finished(); !reflect.DeepEqual(iterated, entered) {
			t.Errorf("worker %d: Iterated for %v, trace advanced into %v", w, iterated, entered)
		}
	}
	return kinds
}

// TestObserveMatchesTraceCrashRestart: worker 2 of a ring halts at
// iteration 3 and restarts. The survivors are held in their next
// gradient step until the replacement has announced itself, so each
// records the death and then the join.
func TestObserveMatchesTraceCrashRestart(t *testing.T) {
	const crash = 3
	faults := make([]FaultSchedule, 3)
	faults[2] = FaultSchedule{CrashIter: crash, RestartAfter: time.Nanosecond}
	cfg := Config{Graph: graph.Ring(3), MaxIter: 10, FaultTolerance: true, Faults: faults}
	announced := make(chan struct{})
	var once sync.Once
	rts, trs := runMesh(t, cfg, func(r *recordRuntime) {
		if r.w == 2 {
			r.sent = func() {
				// The first send after the halt is the rejoin announcement.
				if r.m.at(2).cfg.Rejoin {
					once.Do(func() { close(announced) })
				}
			}
			return
		}
		r.gate = func(iter int) {
			if iter > crash {
				<-announced
			}
		}
	})
	kinds := checkObserved(t, rts, trs)
	for _, k := range []TraceKind{TraceAdvance, TraceCrash, TraceRejoin, TraceDeath, TraceJoin} {
		if !kinds[k] {
			t.Errorf("no %v event: the case did not exercise it", k)
		}
	}
}

// TestObserveMatchesTraceSkip: worker 0 of a ring with backup workers
// and token queues is held in its first gradient step until both
// neighbours have run max_ig iterations ahead, so at the end of
// iteration 0 it is max_ig behind and jumps (§5).
func TestObserveMatchesTraceSkip(t *testing.T) {
	const maxIG = 3
	cfg := Config{Graph: graph.Ring(3), MaxIter: 12, MaxIG: maxIG, Backup: 1,
		MaxJump: maxIG}
	var ahead sync.WaitGroup
	ahead.Add(2)
	rts, trs := runMesh(t, cfg, func(r *recordRuntime) {
		if r.w == 0 {
			r.gate = func(iter int) {
				if iter == 0 {
					ahead.Wait()
				}
			}
			return
		}
		var once sync.Once
		r.gate = func(iter int) {
			if iter == maxIG {
				once.Do(ahead.Done)
			}
		}
	})
	kinds := checkObserved(t, rts, trs)
	if !kinds[TraceJump] {
		t.Error("no jump event: the case did not exercise skipping")
	}
}

// TestIteratedNeverForPSServer: a parameter-server leaf reports every
// round it computes, with its number; the server computes nothing and
// reports none.
func TestIteratedNeverForPSServer(t *testing.T) {
	const iters = 5
	rts, trs := runMesh(t, Config{Graph: graph.Star(3), Mode: ModePS, MaxIter: iters}, func(*recordRuntime) {})
	if got := rts[0].finished(); len(got) != 0 {
		t.Errorf("server: Iterated for %v, want none", got)
	}
	for w := 1; w < len(rts); w++ {
		if got, want := rts[w].finished(), []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Errorf("leaf %d: Iterated for %v, want %v", w, got, want)
		}
	}
	checkObserved(t, rts[1:], trs[1:])
	// The server did enter every round: its silence is not a run cut
	// short.
	if n := len(trs[0].Events()); n != iters {
		t.Errorf("server recorded %d events, want %d advances", n, iters)
	}
}

// nopRuntime is a Runtime that ignores everything.
type nopRuntime struct{}

func (nopRuntime) Compute(int, func())       {}
func (nopRuntime) EndCompute()               {}
func (nopRuntime) Iterated(int, float64)     {}
func (nopRuntime) Send(int, Update)          {}
func (nopRuntime) GrantTokens(int, int)      {}
func (nopRuntime) PeerIter(int) int          { return 0 }
func (nopRuntime) Observe(TraceEvent)        {}
func (nopRuntime) GetParams(n int) []float64 { return make([]float64, n) }
func (nopRuntime) RecycleParams([]float64)   {}

// TestObserveAllocationFree: with tracing off, telling the runtime a
// decision — a Prague group's Members included — allocates nothing.
func TestObserveAllocationFree(t *testing.T) {
	p, err := NewProtocol(Config{Graph: graph.Ring(3)}, 0, nil, NewSyncMonitor(), nopRuntime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	group := []int{0, 1, 2}
	if a := testing.AllocsPerRun(100, func() {
		p.note(TraceEvent{Kind: TraceAdvance, Iter: 1})
		p.note(TraceEvent{Kind: TraceGroup, Iter: 1, Members: group})
	}); a != 0 {
		t.Errorf("Observe with tracing off: %v allocs per decision pair, want 0", a)
	}
}
