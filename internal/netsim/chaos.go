package netsim

// chaos.go — the simulated plane's seeded network-fault injector, the
// deterministic twin of internal/transport's live chaos interceptor.
// Each ordered link (src, dst) owns a private RNG derived from the
// chaos seed, and every transmission attempt draws exactly four values
// from it (drop, duplicate, reorder, corrupt) regardless of which
// faults are enabled or fire — so enabling duplicate, reorder or
// corrupt never re-times another fault, and a run is a pure function
// of (spec, seed): the byte-identical-traces contract of DESIGN.md §7.
//
// A dropped attempt is retransmitted: the message arrives one
// retransmission timeout later per dropped attempt, and each
// retransmission draws its four values again. Corruption is modeled as
// loss: the live plane flips a bit and the receiver's CRC check
// discards the frame (and tears its connection), so the protocol never
// sees the message.

import (
	"math/rand"
	"slices"
	"time"

	"hop/internal/seeded"
)

// linkRNG returns the ordered link's private RNG, creating it on first
// use. The seed derivation mirrors the burst-schedule convention
// (large primes keep nearby links' streams uncorrelated).
func (f *Fabric) linkRNG(src, dst int) *rand.Rand {
	key := [2]int{src, dst}
	r, ok := f.chaosRNG[key]
	if !ok {
		c := f.cfg.Chaos
		r = seeded.New(c.Seed + int64(src)*104729 + int64(dst)*15485863 + 13)
		f.chaosRNG[key] = r
	}
	return r
}

// reorderDelay is how long a reordered (or duplicated) message lags
// behind its natural arrival: several wire latencies, enough for
// later sends on the link to overtake it. A retransmission waits twice
// that.
func (f *Fabric) reorderDelay() time.Duration {
	d := 4 * f.cfg.Inter.Latency
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// fate draws one transmission attempt's four values on the link, in
// order.
func (f *Fabric) fate(src, dst int) (drop, dup, reorder, corrupt bool) {
	rng, c := f.linkRNG(src, dst), f.cfg.Chaos
	return rng.Float64() < c.Drop, rng.Float64() < c.Duplicate, rng.Float64() < c.Reorder, rng.Float64() < c.Corrupt
}

// DeliverData prices protocol data message m like Deliver and hands it
// to the fabric's handler (Handle) on arrival, routing it through the
// chaos injector first. Membership/control traffic (death notices)
// should keep using Deliver: chaos models a lossy data plane, not a
// lying failure detector. It reports whether the message is on its
// way: a lost one (partition or corruption) never reaches the
// handler, so its Params are still the sender's to recycle.
func (f *Fabric) DeliverData(bytes int, m Message) bool {
	if f.eq.handle == nil {
		panic("netsim: DeliverData before Handle installed a message handler")
	}
	src, dst, iter := m.From, m.Dst, m.Iter
	c := f.cfg.Chaos
	if c == nil {
		f.eq.enqueueMsg(f.placement[dst], f.arrivalTime(src, dst, bytes), m)
		return true
	}
	if c.Severs(src, dst, iter) {
		f.stats.NetPartitioned++
		return false
	}
	drop, dup, reorder, corrupt := f.fate(src, dst)
	var late time.Duration
	for drop {
		f.stats.NetDropped++
		late += 2 * f.reorderDelay()
		drop, dup, reorder, corrupt = f.fate(src, dst)
	}
	if corrupt {
		f.stats.NetCorrupted++
		return false
	}
	at := f.arrivalTime(src, dst, bytes) + late
	if reorder {
		f.stats.NetReordered++
		at += f.reorderDelay()
	}
	f.eq.enqueueMsg(f.placement[dst], at, m)
	if dup {
		// The copy carries its own parameters: every delivered slice
		// has one owner, who recycles it.
		f.stats.NetDuplicated++
		m.Params = slices.Clone(m.Params)
		f.eq.enqueueMsg(f.placement[dst], at+f.reorderDelay(), m)
	}
	return true
}
