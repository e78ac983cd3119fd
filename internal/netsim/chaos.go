package netsim

// chaos.go — the simulated plane's network-fault injector, the twin of
// internal/transport's live one: both take every transmission
// attempt's outcome from chaos.Config.Fate, keyed by the message's
// identity, so a run is a pure function of (spec, seed) — the
// byte-identical-traces contract of DESIGN.md §7 — and a fault lands
// on the same message on both planes.
//
// A dropped attempt is retransmitted: the message arrives one
// retransmission timeout later per dropped attempt, and each
// retransmission meets a fresh fate. Corruption is modeled as loss:
// the live plane flips a bit and the receiver's CRC check discards the
// frame (and tears its connection), so the protocol never sees the
// message.

import (
	"slices"
	"time"

	"hop/internal/chaos"
)

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
		f.enqueue(f.arrivalTime(src, dst, bytes), m)
		return true
	}
	if c.Severs(src, dst, iter) {
		f.stats.NetPartitioned++
		return false
	}
	id := chaos.Msg{Src: src, Dst: dst, Kind: m.Kind, Iter: iter}
	var late time.Duration
	fate := c.Fate(id, 0)
	for a := 1; fate.Drop; a++ {
		f.stats.NetDropped++
		late += 2 * f.reorderDelay()
		fate = c.Fate(id, a)
	}
	if fate.Corrupt {
		f.stats.NetCorrupted++
		return false
	}
	at := f.arrivalTime(src, dst, bytes) + late
	if fate.Reorder {
		f.stats.NetReordered++
		at += f.reorderDelay()
	}
	f.enqueue(at, m)
	if fate.Duplicate {
		// The copy carries its own parameters: every delivered slice
		// has one owner, who recycles it.
		f.stats.NetDuplicated++
		m.Params = slices.Clone(m.Params)
		f.enqueue(at+f.reorderDelay(), m)
	}
	return true
}

// enqueue schedules data message m to arrive at at, or after its
// sender's earlier notices, whichever is later: a restarted worker's
// announce must not overtake its predecessor's death notice.
func (f *Fabric) enqueue(at time.Duration, m Message) {
	at = max(at, f.noticeFrom[m.From])
	f.dataFrom[m.From] = max(f.dataFrom[m.From], at)
	f.eq.enqueueMsg(f.placement[m.Dst], at, m)
}
