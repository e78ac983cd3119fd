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
	"fmt"
	"math/rand"
	"time"
)

// ChaosPartition severs the link between workers A and B (both
// directions) for messages tagged with iterations in [FromIter,
// ToIter).
type ChaosPartition struct {
	A, B             int
	FromIter, ToIter int
}

// ChaosConfig tunes the injector. Probabilities are per-message in
// [0, 1].
type ChaosConfig struct {
	// Drop is the probability a message silently vanishes.
	Drop float64
	// Duplicate is the probability a message is delivered twice (the
	// second copy one reorder-delay later).
	Duplicate float64
	// Reorder is the probability a message is delayed long enough for
	// later traffic on the link to overtake it.
	Reorder float64
	// Corrupt is the probability a message arrives damaged; the
	// receiver's integrity check drops it (counted separately from
	// Drop).
	Corrupt float64
	// Partitions lists severed worker pairs and their windows.
	Partitions []ChaosPartition
	// Seed derives every per-link RNG.
	Seed int64
}

// validate panics on configs that cannot mean what they say — the
// loud-failure precedent of the burst validation in New.
func (c *ChaosConfig) validate() {
	check := func(name string, p float64) {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("netsim: chaos %s probability %g outside [0, 1]", name, p))
		}
	}
	check("drop", c.Drop)
	check("duplicate", c.Duplicate)
	check("reorder", c.Reorder)
	check("corrupt", c.Corrupt)
	for _, p := range c.Partitions {
		if p.A == p.B {
			panic(fmt.Sprintf("netsim: chaos partition pairs worker %d with itself", p.A))
		}
		if p.FromIter < 0 || p.ToIter <= p.FromIter {
			panic(fmt.Sprintf("netsim: chaos partition window [%d, %d) is empty or negative", p.FromIter, p.ToIter))
		}
	}
}

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
	for _, p := range c.Partitions {
		if ((src == p.A && dst == p.B) || (src == p.B && dst == p.A)) &&
			iter >= p.FromIter && iter < p.ToIter {
			f.stats.NetPartitioned++
			return
		}
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
