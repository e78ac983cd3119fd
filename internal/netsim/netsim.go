// Package netsim models the cluster network on top of the simulation
// kernel: machines with serialized NIC resources connected by a shared
// switch, and cheap intra-machine links.
//
// The model captures the three effects the paper's wall-clock results
// depend on (§2.1, §7.3.2, §7.3.6):
//
//   - transfer time = latency + bytes/bandwidth per message;
//   - inter-machine messages serialize on the sender machine's egress
//     NIC and the receiver machine's ingress NIC, which produces the
//     parameter-server ingress hotspot and the topology-dependent link
//     contention of Figure 20;
//   - intra-machine messages use a fast memory-backed path and do not
//     occupy the NIC.
//
// Two heterogeneous link classes extend the uniform fabric (DESIGN.md
// §4.3): per-machine NIC bandwidth overrides (a cluster mixing 10GbE
// and 1GbE machines, or one badly-cabled host) and bursty straggler
// links (a machine's NIC alternates between full speed and a degraded
// state on a deterministic, seeded on/off schedule — the network
// analogue of the paper's §7.3.1 transient compute slowdowns).
//
// The fabric keeps resource-availability timestamps per machine
// instead of simulating queues with processes: when a message is sent
// at time t, its delivery time is computed in O(1) from the NIC
// timelines and a delivery callback is scheduled on the kernel.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"hop/internal/chaos"
	"hop/internal/seeded"
	"hop/internal/sim"
)

// LinkParams describe one class of link.
type LinkParams struct {
	// Latency is the propagation delay added to every message.
	Latency time.Duration
	// Bandwidth is the link speed in bytes per second.
	Bandwidth float64
}

// BurstConfig describes bursty straggler links: every machine's NIC
// alternates between full configured bandwidth and bandwidth divided
// by Factor. On/off dwell times are drawn from exponential
// distributions with the given means, from a private RNG per machine
// seeded by Seed — the schedule is a pure function of the
// configuration, so simulated runs that share a config regenerate
// bit-identically (the determinism contract of DESIGN.md §4.4).
type BurstConfig struct {
	// Factor divides the machine's NIC bandwidth while a burst is
	// active (must be > 1 to have any effect).
	Factor float64
	// MeanOn is the mean duration of a degraded period. Must be at
	// least MinBurstDwell.
	MeanOn time.Duration
	// MeanOff is the mean duration between degraded periods. Must be
	// at least MinBurstDwell.
	MeanOff time.Duration
	// Seed drives the schedule RNG (one derived stream per machine).
	Seed int64
}

// MinBurstDwell is the smallest accepted burst mean dwell. It bounds
// the window count a schedule can generate per unit of virtual time
// (windows are retained; see burstState), so a config stating means in
// the wrong unit — e.g. a bare JSON number parsed as nanoseconds —
// fails construction instead of grinding through billions of windows.
const MinBurstDwell = 100 * time.Microsecond

// Config describes the fabric.
type Config struct {
	// Intra applies to messages between workers on the same machine.
	Intra LinkParams
	// Inter applies to messages crossing machines; these serialize on
	// the per-machine NICs.
	Inter LinkParams
	// MachineBandwidth, when non-nil, overrides Inter.Bandwidth per
	// machine: entry m (> 0) is machine m's NIC speed in bytes per
	// second for both egress and ingress; entries ≤ 0 (and machines
	// past the end of the slice) keep the uniform Inter.Bandwidth.
	// This is the heterogeneous-bandwidth link class: a transfer is
	// priced at the source's egress speed on the source NIC and the
	// destination's ingress speed on the destination NIC.
	MachineBandwidth []float64
	// Burst, when non-nil, enables bursty straggler links.
	Burst *BurstConfig
	// Chaos, when non-nil, enables the seeded network-fault injector
	// (drop/duplicate/reorder/corrupt plus partition windows) on
	// messages routed through DeliverData. See chaos.go.
	Chaos *chaos.Config
}

// Validate reports the first setting that cannot mean what it says on
// a fabric of the given worker count: a configured-but-ineffective
// burst, or a chaos clause chaos.Config.Validate refuses. New panics on
// it; the scenario layer returns it from spec validation.
func (c *Config) Validate(workers int) error {
	if b := c.Burst; b != nil {
		if b.Factor <= 1 {
			return fmt.Errorf("netsim: burst factor must be > 1, got %g", b.Factor)
		}
		if b.MeanOn < MinBurstDwell || b.MeanOff < MinBurstDwell {
			return fmt.Errorf("netsim: burst means must be >= %v (did a bare number parse as nanoseconds?), got on=%v off=%v",
				MinBurstDwell, b.MeanOn, b.MeanOff)
		}
	}
	if c.Chaos != nil {
		return c.Chaos.Validate(workers)
	}
	return nil
}

// Default1GbE mirrors the paper's testbed: 1000 Mbit/s Ethernet
// between machines (§7.2), with an in-memory path inside a machine.
func Default1GbE() Config {
	return Config{
		Intra: LinkParams{Latency: 50 * time.Microsecond, Bandwidth: 8e9},
		Inter: LinkParams{Latency: 500 * time.Microsecond, Bandwidth: 125e6},
	}
}

// IsZero reports whether the config is entirely unset (callers treat
// that as "use Default1GbE"). Config is not comparable with == because
// of the per-machine slice, so the zero check is explicit.
func (c *Config) IsZero() bool {
	return c.Intra == (LinkParams{}) && c.Inter == (LinkParams{}) &&
		c.MachineBandwidth == nil && c.Burst == nil && c.Chaos == nil
}

// Stats aggregates fabric counters. It is a counter table
// (internal/counters): every field is a counter named by its json tag.
type Stats struct {
	// Messages counts every delivery, intra- or inter-machine.
	Messages int `json:"messages"`
	// Bytes counts every delivered byte.
	Bytes int64 `json:"bytes"`
	// InterMessages counts deliveries that crossed machines (and
	// therefore occupied NICs).
	InterMessages int `json:"inter_messages"`
	// InterBytes counts the bytes of those cross-machine deliveries.
	InterBytes int64 `json:"inter_bytes"`
	// BurstMessages counts inter-machine messages whose source or
	// destination NIC was inside a degraded burst window when the
	// transfer started.
	BurstMessages int `json:"burst_messages"`
	// Net* count faults injected by Config.Chaos on DeliverData
	// messages (all zero when chaos is off). NetDropped counts dropped
	// attempts, each retransmitted; NetCorrupted is loss the receiver's
	// integrity check would produce.
	NetDropped     int `json:"net_dropped"`
	NetDuplicated  int `json:"net_duplicated"`
	NetReordered   int `json:"net_reordered"`
	NetCorrupted   int `json:"net_corrupted"`
	NetPartitioned int `json:"net_partitioned"`
}

// burstWindow is one degraded period [start, end).
type burstWindow struct {
	start, end time.Duration
}

// burstState holds one machine's schedule. Windows are drawn lazily
// from the RNG but *retained*: the egress and ingress timelines query
// the same machine at non-monotonic times (a queued reception can look
// far ahead of the next send), so consuming windows with a single
// forward cursor would silently skip degraded periods for the
// earlier-timeline query. Retention keeps the schedule a pure function
// of the config regardless of traffic interleaving.
type burstState struct {
	rng     *rand.Rand
	windows []burstWindow
	horizon time.Duration // schedule generated up to here
}

// Fabric prices and schedules message deliveries.
type Fabric struct {
	k         *sim.Kernel
	cfg       Config
	placement []int // worker → machine

	egressFree  []time.Duration // per machine
	ingressFree []time.Duration

	bursts []*burstState // per machine; nil when Config.Burst is nil

	// dataFrom and noticeFrom are, per worker, the latest arrival
	// priced for a DeliverData message it sent (chaos copies included)
	// and for a Deliver notice: each floors the other kind, so a
	// worker's notices land after the data it sent before them and
	// before the data it sends after.
	dataFrom, noticeFrom []time.Duration

	// eq shards pending deliveries by destination machine so the
	// kernel's timer heap stays small regardless of how many messages
	// are in flight (see eventq.go).
	eq *eventQueue

	stats Stats
}

// New creates a fabric for workers placed on machines per placement
// (worker i on machine placement[i]); a nil placement puts every
// worker on machine 0.
func New(k *sim.Kernel, cfg Config, workers int, placement []int) *Fabric {
	if placement == nil {
		placement = make([]int, workers)
	}
	if len(placement) != workers {
		panic(fmt.Sprintf("netsim: placement has %d entries for %d workers", len(placement), workers))
	}
	// A configured-but-ineffective setting must fail loudly (like the
	// placement check above), not quietly run a uniform network.
	if err := cfg.Validate(workers); err != nil {
		panic(err.Error())
	}
	machines := 0
	for _, m := range placement {
		if m+1 > machines {
			machines = m + 1
		}
	}
	// Copy the shared/aliased config parts (like placement below) so a
	// caller reusing or mutating its Config cannot re-price an
	// in-flight simulation.
	if cfg.MachineBandwidth != nil {
		cfg.MachineBandwidth = append([]float64(nil), cfg.MachineBandwidth...)
	}
	if cfg.Burst != nil {
		b := *cfg.Burst
		cfg.Burst = &b
	}
	if cfg.Chaos != nil {
		c := *cfg.Chaos
		c.Partitions = append([]chaos.Partition(nil), c.Partitions...)
		cfg.Chaos = &c
	}
	f := &Fabric{
		k:           k,
		cfg:         cfg,
		placement:   append([]int(nil), placement...),
		egressFree:  make([]time.Duration, machines),
		ingressFree: make([]time.Duration, machines),
		dataFrom:    make([]time.Duration, workers),
		noticeFrom:  make([]time.Duration, workers),
		eq:          newEventQueue(k, machines),
	}
	if b := cfg.Burst; b != nil {
		f.bursts = make([]*burstState, machines)
		for m := 0; m < machines; m++ {
			f.bursts[m] = &burstState{rng: seeded.New(b.Seed + int64(m)*15485863 + 7)}
		}
	}
	return f
}

// bursting reports whether t falls inside a degraded window, drawing
// new off/on dwell pairs from the machine's RNG as needed. The first
// window starts after one off-dwell, so runs begin at full speed.
// Queries may arrive in any time order (see burstState).
func (s *burstState) bursting(b *BurstConfig, t time.Duration) bool {
	for s.horizon <= t {
		off := time.Duration(s.rng.ExpFloat64() * float64(b.MeanOff))
		on := time.Duration(s.rng.ExpFloat64() * float64(b.MeanOn))
		w := burstWindow{start: s.horizon + off}
		w.end = w.start + on
		s.windows = append(s.windows, w)
		s.horizon = w.end
	}
	// Binary search: first window ending after t.
	lo, hi := 0, len(s.windows)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.windows[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.windows) && t >= s.windows[lo].start
}

// bandwidthAt returns machine m's NIC bandwidth for a transfer
// starting at time t, applying the per-machine override and any active
// burst window, and reports whether a burst degraded it. Bandwidth is
// sampled at transfer start: a window edge mid-transfer does not
// re-price the message (DESIGN.md §4.3).
func (f *Fabric) bandwidthAt(m int, t time.Duration) (bw float64, bursting bool) {
	bw = f.cfg.Inter.Bandwidth
	if m < len(f.cfg.MachineBandwidth) && f.cfg.MachineBandwidth[m] > 0 {
		bw = f.cfg.MachineBandwidth[m]
	}
	if f.bursts != nil && f.bursts[m].bursting(f.cfg.Burst, t) {
		return bw / f.cfg.Burst.Factor, true
	}
	return bw, false
}

// Deliver schedules fn to run when a message of the given size sent
// now from src to dst would arrive, but never before the data src
// sent anywhere earlier: a small notice on a fast link, or one racing
// data that chaos held back, would otherwise overtake a dead worker's
// last update.
// It must be called from simulation context (a running process or an
// After callback). It is the control-plane form (death notices);
// protocol data rides DeliverData as a typed Message, closure-free.
func (f *Fabric) Deliver(src, dst, bytes int, fn func()) {
	at := max(f.arrivalTime(src, dst, bytes), f.dataFrom[src])
	f.noticeFrom[src] = max(f.noticeFrom[src], at)
	f.eq.push(f.placement[dst], sim.Event{When: at, Fn: fn})
}

// Message is one protocol data message in flight: worker From's
// iteration-Iter message of kind Kind for worker Dst — a parameter
// update (with chaos.Reply or-ed in, an AD-PSGD averaging reply) or a
// token grant, the kinds of the live wire. It rides the event queue by
// value, so a send allocates nothing.
type Message struct {
	Dst, From, Iter int
	Kind            chaos.Kind
	Params          []float64
}

// Handle installs the one handler every DeliverData message is passed
// to on arrival (scheduler context, like an After callback).
func (f *Fabric) Handle(h func(Message)) { f.eq.handle = h }

// arrivalTime advances the NIC timelines and returns the delivery
// time.
func (f *Fabric) arrivalTime(src, dst, bytes int) time.Duration {
	now := f.k.Now()
	f.stats.Messages++
	f.stats.Bytes += int64(bytes)
	ms, md := f.placement[src], f.placement[dst]
	if ms == md {
		tx := time.Duration(float64(bytes) / f.cfg.Intra.Bandwidth * float64(time.Second))
		return now + f.cfg.Intra.Latency + tx
	}
	f.stats.InterMessages++
	f.stats.InterBytes += int64(bytes)
	// Serialize on source egress at the source NIC's speed.
	egStart := maxDur(now, f.egressFree[ms])
	egBW, egBurst := f.bandwidthAt(ms, egStart)
	egTx := time.Duration(float64(bytes) / egBW * float64(time.Second))
	f.egressFree[ms] = egStart + egTx
	// Bits start arriving after the wire latency; reception serializes
	// on destination ingress at the destination NIC's speed.
	rxStart := maxDur(egStart+f.cfg.Inter.Latency, f.ingressFree[md])
	rxBW, rxBurst := f.bandwidthAt(md, rxStart)
	rxTx := time.Duration(float64(bytes) / rxBW * float64(time.Second))
	// Reception cannot finish before the last bit left the source NIC
	// plus the wire latency — the transfer is bottlenecked by the
	// slower of the two NICs. (With uniform speeds this term is never
	// the max, so the homogeneous model is unchanged.)
	rxEnd := maxDur(rxStart+rxTx, egStart+egTx+f.cfg.Inter.Latency)
	f.ingressFree[md] = rxEnd
	if egBurst || rxBurst {
		f.stats.BurstMessages++
	}
	return rxEnd
}

// Stats returns a snapshot of the counters.
func (f *Fabric) Stats() Stats { return f.stats }

// MachineOf returns the machine hosting worker w.
func (f *Fabric) MachineOf(w int) int { return f.placement[w] }

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
