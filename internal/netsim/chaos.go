package netsim

// chaos.go — the simulated plane's seeded network-fault injector, the
// deterministic twin of internal/transport's live chaos interceptor.
// Each ordered link (src, dst) owns a private RNG derived from the
// chaos seed, and every data message draws exactly four values from it
// (drop, duplicate, reorder, corrupt) regardless of which faults are
// enabled or fire — so enabling one fault never re-times another, and
// a run is a pure function of (spec, seed): the byte-identical-traces
// contract of DESIGN.md §7.
//
// Corruption is modeled as loss: the live plane flips a bit and the
// receiver's CRC check discards the frame, so by the time the protocol
// would see it, a corrupt message and a dropped message are the same
// event. The counters keep them distinct.

import (
	"math/rand"
	"time"
)

// linkRNG returns the ordered link's private RNG, creating it on first
// use. The seed derivation mirrors the burst-schedule convention
// (large primes keep nearby links' streams uncorrelated).
func (f *Fabric) linkRNG(src, dst int) *rand.Rand {
	key := [2]int{src, dst}
	r, ok := f.chaosRNG[key]
	if !ok {
		c := f.cfg.Chaos
		r = rand.New(rand.NewSource(c.Seed + int64(src)*104729 + int64(dst)*15485863 + 13))
		f.chaosRNG[key] = r
	}
	return r
}

// reorderDelay is how long a reordered (or duplicated) message lags
// behind its natural arrival: several wire latencies, enough for
// later sends on the link to overtake it.
func (f *Fabric) reorderDelay() time.Duration {
	d := 4 * f.cfg.Inter.Latency
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// DeliverData prices protocol data message m like Deliver and hands it
// to the fabric's handler (Handle) on arrival, routing it through the
// chaos injector first. Membership/control traffic (death notices)
// should keep using Deliver: chaos models a lossy data plane, not a
// lying failure detector.
func (f *Fabric) DeliverData(bytes int, m Message) {
	if f.eq.handle == nil {
		panic("netsim: DeliverData before Handle installed a message handler")
	}
	src, dst, iter := m.From, m.Dst, m.Iter
	c := f.cfg.Chaos
	if c == nil {
		f.eq.enqueueMsg(f.placement[dst], f.arrivalTime(src, dst, bytes), m)
		return
	}
	if c.Severs(src, dst, iter) {
		f.stats.NetPartitioned++
		return
	}
	// Exactly four draws per message, fault or no fault: the draw
	// schedule — and therefore every later draw on this link — is
	// independent of which faults fire.
	rng := f.linkRNG(src, dst)
	drop := rng.Float64() < c.Drop
	dup := rng.Float64() < c.Duplicate
	reorder := rng.Float64() < c.Reorder
	corrupt := rng.Float64() < c.Corrupt
	switch {
	case drop:
		f.stats.NetDropped++
		return
	case corrupt:
		// The live receiver CRC-drops a corrupt frame, so here it is
		// loss with its own counter.
		f.stats.NetCorrupted++
		return
	}
	at := f.arrivalTime(src, dst, bytes)
	if reorder {
		f.stats.NetReordered++
		at += f.reorderDelay()
	}
	f.eq.enqueueMsg(f.placement[dst], at, m)
	if dup {
		f.stats.NetDuplicated++
		f.eq.enqueueMsg(f.placement[dst], at+f.reorderDelay(), m)
	}
}
