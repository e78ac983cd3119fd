// Package core implements the Hop protocol: queue-based
// synchronization for decentralized training (§4 of the paper), with
// backup workers (§4.3), bounded staleness (§4.4), skipping iterations
// (§5), and the NOTIFY-ACK baseline (§3.3) — plus, on the same state
// machine, the Prague partial all-reduce, the BSP parameter server and
// AD-PSGD (Mode).
//
// The protocol code is written against two small abstractions so that
// the exact same engine runs on the deterministic simulator
// (internal/sim + internal/netsim) and on the live goroutine/TCP
// runtime (internal/live):
//
//   - Monitor: a lock plus condition variables bound to it. The
//     simulator's implementation is a no-op lock (the sim kernel runs
//     one process at a time); the live implementation wraps sync.Mutex
//     and sync.Cond.
//   - Runtime (protocol.go): the execution environment of one worker —
//     the modeling of gradient-computation time, message delivery,
//     peer-iteration inquiry (§6.2's send-side check) and the report of
//     each finished iteration. The protocol itself reads no clock.
package core

import "sync"

// Cond is a condition variable bound to its Monitor's lock. Wait
// atomically releases the lock and blocks until Broadcast; the caller
// must hold the lock and must re-check its predicate in a loop.
type Cond interface {
	Wait()
	Broadcast()
}

// Monitor is the lock under which all queue state of one cluster is
// mutated, plus a factory for condition variables bound to it.
type Monitor interface {
	Lock()
	Unlock()
	NewCond() Cond
}

// SyncMonitor is the live-runtime Monitor: a real mutex with
// sync.Cond condition variables.
type SyncMonitor struct{ mu sync.Mutex }

// NewSyncMonitor returns a Monitor backed by sync primitives.
func NewSyncMonitor() *SyncMonitor { return &SyncMonitor{} }

// Lock implements Monitor.
func (m *SyncMonitor) Lock() { m.mu.Lock() }

// Unlock implements Monitor.
func (m *SyncMonitor) Unlock() { m.mu.Unlock() }

// NewCond implements Monitor.
func (m *SyncMonitor) NewCond() Cond { return sync.NewCond(&m.mu) }

// Update is one parameter message: the sender's parameters tagged with
// the iteration that produced them and the sender id (the (iter, w_id)
// tags of §4.1). Params must be treated as immutable by receivers.
type Update struct {
	Params []float64
	Iter   int
	From   int

	// Reply marks an AD-PSGD averaging reply (baselines.go); every
	// other update, AD-PSGD's requests included, leaves it false.
	Reply bool
}

// Stats aggregates engine-level counters, separate from the network
// fabric's byte counters. It is a counter table (internal/counters):
// every field is a counter named by its json tag.
type Stats struct {
	SendsSuppressed   int `json:"sends_suppressed"`   // sends skipped by the §6.2 receiver-iteration check
	StaleDiscarded    int `json:"stale_discarded"`    // stale updates dropped at dequeue (§6.1/§6.2)
	Jumps             int `json:"jumps"`              // skip-iteration jumps executed (§5)
	IterationsSkipped int `json:"iterations_skipped"` // total iterations jumped over
	PeersLost         int `json:"peers_lost"`         // peers removed from the iteration graph (DESIGN.md §6)
	PeersJoined       int `json:"peers_joined"`       // peers re-admitted after a restart
	GroupExcluded     int `json:"group_excluded"`     // prague group members absent from a reduce (DESIGN.md §8)
}
