// Package chaos is the one description of injected network faults: the
// spec's fault.net clause, read as is by both fault injectors — the
// simulator's (internal/netsim) and the live frame-level one
// (internal/transport) — and the one source of their randomness, Fate.
// DESIGN.md §7 has the grammar and how each plane realizes it.
package chaos

import "fmt"

// Partition severs the data plane between workers A and B, in both
// directions, for messages tagged with iterations in [FromIter,
// ToIter).
type Partition struct {
	A        int `json:"a"`
	B        int `json:"b"`
	FromIter int `json:"from_iter"`
	ToIter   int `json:"to_iter"`
}

// Config tunes an injector. All probabilities are per-message in
// [0, 1], drop's below 1; the zero value injects nothing.
type Config struct {
	// Drop is the probability a transmission attempt is lost. The link
	// retransmits a dropped message after a fixed timeout, and the
	// retransmission draws its fate again, so a drop delays a message
	// and never loses it.
	Drop float64 `json:"drop,omitempty"`
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Reorder is the probability a message is delayed past later
	// traffic (live: a seeded, capped pre-write delay that holds the
	// frame's connection, so it is overtaken by the sender's other
	// connections only).
	Reorder float64 `json:"reorder,omitempty"`
	// Corrupt is the probability a message is damaged in flight; the
	// receiver's CRC32-C check detects and drops it.
	Corrupt float64 `json:"corrupt,omitempty"`
	// Partitions lists severed worker pairs and iteration windows.
	Partitions []Partition `json:"partitions,omitempty"`
	// Seed keys every fate. In a spec, 0 derives 400+spec seed
	// (layering after batch 100+S, slowdown 200+S, burst 300+S).
	Seed int64 `json:"seed,omitempty"`
}

// Validate reports the first knob that cannot mean what it says for a
// cluster of n workers.
func (c *Config) Validate(n int) error {
	for _, pr := range []struct {
		name string
		p    float64
	}{{"drop", c.Drop}, {"duplicate", c.Duplicate}, {"reorder", c.Reorder}, {"corrupt", c.Corrupt}} {
		if pr.p < 0 || pr.p > 1 {
			return fmt.Errorf("chaos: %s probability %g outside [0, 1]", pr.name, pr.p)
		}
	}
	if c.Drop == 1 {
		return fmt.Errorf("chaos: drop probability 1 loses every retransmission, so no message would ever arrive")
	}
	for i, p := range c.Partitions {
		if p.A < 0 || p.A >= n || p.B < 0 || p.B >= n {
			return fmt.Errorf("chaos: partition %d pairs workers (%d, %d), outside [0, %d)", i, p.A, p.B, n)
		}
		if p.A == p.B {
			return fmt.Errorf("chaos: partition %d pairs worker %d with itself", i, p.A)
		}
		if p.FromIter < 0 || p.ToIter <= p.FromIter {
			return fmt.Errorf("chaos: partition %d window [%d, %d) is empty or negative", i, p.FromIter, p.ToIter)
		}
	}
	return nil
}

// Lossy reports whether the config can make messages disappear: a
// corrupt frame or a partition window, never a retransmitted drop.
func (c *Config) Lossy() bool {
	return c.Corrupt > 0 || len(c.Partitions) > 0
}

// Severs reports whether a partition window cuts the link between a and
// b (either direction) for a message tagged with iteration iter.
func (c *Config) Severs(a, b, iter int) bool {
	for _, p := range c.Partitions {
		if ((a == p.A && b == p.B) || (a == p.B && b == p.A)) && iter >= p.FromIter && iter < p.ToIter {
			return true
		}
	}
	return false
}

// Kind is a message's kind as Fate keys it: the live wire's frame kind
// byte (internal/transport), with Reply or-ed into an AD-PSGD averaging
// reply, which only the simulator sends.
type Kind uint8

const (
	Update    Kind = 0
	Token     Kind = 1
	Heartbeat Kind = 6
	Reply     Kind = 0x80
)

// Msg is a message's identity, the key of its fate.
type Msg struct {
	Src, Dst int
	Kind     Kind
	Iter     int // the iteration tag; a heartbeat's: its connection's heartbeat count
	Chunk    int // a live multi-chunk update's chunk index
	Gen      int // connections Src dialed to Dst before this one; 0 on the simulator
}

// Outcome is one transmission attempt's fate.
type Outcome struct {
	Drop, Duplicate, Reorder, Corrupt bool
	Lag                               float64 // a reorder's share of its plane's delay cap, in [0, 1)
	Bit                               uint64  // a corrupt frame's flipped bit, mod its length in bits
}

// gamma is SplitMix64's increment, the golden ratio in 64 bits.
const gamma uint64 = 0x9e3779b97f4a7c15

// mix is SplitMix64's finaliser, a bijection that avalanches every bit.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Fate is attempt number attempt's outcome for message m, a pure
// function of the seed, m and attempt: a counter-based generator
// (Salmon et al., SC 2011) keyed by folding each identity field into
// the seed through mix, which, being a bijection, changes the key when
// any one field changes. Outcome i is mix(key + i·gamma). Both planes
// call it and keep no other fault randomness.
func (c *Config) Fate(m Msg, attempt int) Outcome {
	k := uint64(c.Seed)
	for _, v := range [...]int{m.Src, m.Dst, int(m.Kind), m.Iter, m.Chunk, m.Gen, attempt} {
		k = mix((k + gamma) ^ uint64(v))
	}
	out := func(i uint64) uint64 { return mix(k + i*gamma) }
	u := func(i uint64) float64 { return float64(out(i)>>11) / (1 << 53) }
	return Outcome{
		Drop: u(1) < c.Drop, Duplicate: u(2) < c.Duplicate, Reorder: u(3) < c.Reorder, Corrupt: u(4) < c.Corrupt,
		Lag: u(5), Bit: out(6),
	}
}
