// Package chaos is the one description of injected network faults: the
// spec's fault.net clause, read as is by both fault injectors — the
// simulator's per-link injector (internal/netsim) and the live
// frame-level one (internal/transport). DESIGN.md §7 has the grammar
// and how each plane realizes it.
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
	// Seed drives the fault RNGs. In a spec, 0 derives 400+spec seed
	// (layering after batch 100+S, slowdown 200+S, burst 300+S); the
	// live injector derives a seed from the clock when handed 0.
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
