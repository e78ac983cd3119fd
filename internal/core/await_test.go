package core

// Every kind of wait a worker blocks in goes through Protocol.await, so
// each one must honour the same two exits: Abort unwinds it, and the
// pending death of the peer it is missing reforms the graph and lets it
// proceed. One row per wait kind drives a single worker against an echo
// runtime whose missing peer stops answering at a fixed iteration.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hop/internal/graph"
	"hop/internal/model"
	"hop/internal/tensor"
)

// echoBlockAt is the iteration whose wait the missing peer starves.
const echoBlockAt = 3

// echoRuntime plays a worker's peers: every Send comes straight back as
// the destination's update (a reply under AD-PSGD), every ACK as the
// destination's ACK and every grant as the destination's grant — until
// the row's missing peer stops sending its kind of message to the wait
// of iteration echoBlockAt and later.
type echoRuntime struct {
	p       *Protocol
	missing int
	swallow string // "update", "ack" or "grant"
}

// stopped reports whether peer's message of kind, which satisfies the
// wait of iteration iter, is swallowed.
func (r *echoRuntime) stopped(kind string, peer, iter int) bool {
	return kind == r.swallow && peer == r.missing && iter >= echoBlockAt
}

func (r *echoRuntime) Compute(_ int, fn func()) { fn() }

func (r *echoRuntime) EndCompute() {}

func (r *echoRuntime) Iterated(int, float64) {}

func (r *echoRuntime) Send(dst int, u Update) {
	if !r.stopped("update", dst, u.Iter) {
		r.p.Deliver(Update{Params: tensor.Clone(u.Params), Iter: u.Iter, From: dst, Reply: r.p.cfg.Mode == ModeADPSGD})
	}
}

// SendAck's ACK for iter is what the ACK wait of iter+1 needs.
func (r *echoRuntime) SendAck(dst, iter int) {
	if !r.stopped("ack", dst, iter+1) {
		r.p.DeliverAck(dst, iter)
	}
}

// GrantTokens' iter is the iteration entered, whose closing take the
// grant feeds.
func (r *echoRuntime) GrantTokens(dst, iter, count int) {
	if !r.stopped("grant", dst, iter) {
		r.p.DeliverTokens(dst, count)
	}
}

func (r *echoRuntime) PeerIter(int) int { return 0 }

func (r *echoRuntime) Observe(TraceEvent) {}

func (r *echoRuntime) GetParams(n int) []float64 { return make([]float64, n) }

func (r *echoRuntime) RecycleParams([]float64) {}

// blockingMonitor is a SyncMonitor whose conds signal blocked as a Wait
// begins. The waiter holds the monitor until it parks, so Abort or
// DeclarePeerDead called after the signal reaches a parked worker and
// must wake it.
type blockingMonitor struct {
	*SyncMonitor
	blocked chan struct{}
}

func (m blockingMonitor) NewCond() Cond { return blockingCond{m.SyncMonitor.NewCond(), m.blocked} }

type blockingCond struct {
	Cond
	blocked chan struct{}
}

func (c blockingCond) Wait() {
	select {
	case c.blocked <- struct{}{}:
	default:
	}
	c.Cond.Wait()
}

func TestEveryWaitHonoursAbortAndDeath(t *testing.T) {
	hop := func(mutate func(*Config)) Config {
		c := Config{Graph: graph.Ring(3)}
		if mutate != nil {
			mutate(&c)
		}
		return c
	}
	rows := []struct {
		name    string
		cfg     Config
		id      int
		missing int
		swallow string
		reforms bool // a Hop-family wait: the missing peer's death lets it proceed
	}{
		{"reduce", hop(nil), 0, 2, "update", true},
		{"staleness newest-from", hop(func(c *Config) { c.Staleness = 1 }), 0, 2, "update", true},
		{"token take", hop(func(c *Config) { c.MaxIG = 1 }), 0, 2, "grant", true},
		{"notify-ack ack", hop(func(c *Config) { c.Mode = ModeNotifyAck }), 0, 2, "ack", true},
		{"adpsgd reply", Config{Graph: graph.Chain(2), Mode: ModeADPSGD}, 0, 1, "update", false},
		{"ps leaf", Config{Graph: graph.Star(3), Mode: ModePS}, 1, 0, "update", false},
	}
	for _, row := range rows {
		for _, act := range []string{"abort", "death"} {
			if act == "death" && !row.reforms {
				continue
			}
			t.Run(row.name+"/"+act, func(t *testing.T) {
				cfg := row.cfg
				cfg.MaxIter = echoBlockAt + 3
				cfg.FaultTolerance = row.reforms
				mon := blockingMonitor{NewSyncMonitor(), make(chan struct{}, 1)}
				rt := &echoRuntime{missing: row.missing, swallow: row.swallow}
				tr := NewTrace()
				p, err := NewProtocol(cfg, row.id, model.NewFrozen([]float64{1}), mon, rt, tr)
				if err != nil {
					t.Fatal(err)
				}
				rt.p = p
				done := make(chan error, 1)
				go func() { done <- p.Run() }()
				select {
				case <-mon.blocked:
				case err := <-done:
					t.Fatalf("Run returned %v without blocking", err)
				case <-time.After(10 * time.Second):
					t.Fatal("worker never blocked")
				}
				// Under staleness s the starved peer's last update still
				// serves s more iterations.
				blockAt := echoBlockAt + cfg.Staleness
				if k := lastAdvance(tr); k != blockAt {
					t.Errorf("blocked in iteration %d, want %d", k, blockAt)
				}
				wantErr, wantMembership := ErrAborted, ""
				if act == "abort" {
					p.Abort()
				} else {
					p.DeclarePeerDead(row.missing)
					wantErr, wantMembership = nil, fmt.Sprintf("D%d@%d", row.missing, blockAt)
				}
				select {
				case err := <-done:
					if !errors.Is(err, wantErr) {
						t.Errorf("Run returned %v, want %v", err, wantErr)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("worker still blocked after %s", act)
				}
				if got := tr.MembershipString(); got != wantMembership {
					t.Errorf("membership events %q, want %q", got, wantMembership)
				}
			})
		}
	}
}

func lastAdvance(tr *Trace) int {
	k := -1
	for _, e := range tr.Events() {
		if e.Kind == TraceAdvance {
			k = e.Iter
		}
	}
	return k
}
