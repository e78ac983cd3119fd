// Package hetero models system heterogeneity (§2.3): per-iteration
// compute-time slowdowns, both random (resource sharing, transient
// faults) and deterministic (slower hardware), exactly as the paper's
// evaluation injects them (§7.3.1: slow every worker 6× with
// probability 1/n per iteration; §7.3.5: one fixed worker 4× slower).
package hetero

import (
	"fmt"
	"math/rand"
	"time"

	"hop/internal/seeded"
)

// Slowdown yields a multiplicative compute-time factor (≥1) for worker
// w at iteration iter. Implementations must be deterministic given the
// rng stream.
type Slowdown interface {
	Factor(w, iter int, rng *rand.Rand) float64
	String() string
}

// None is the homogeneous environment.
type None struct{}

// Factor implements Slowdown.
func (None) Factor(int, int, *rand.Rand) float64 { return 1 }

// String names the source for experiment labels.
func (None) String() string { return "none" }

// Random slows a worker by Fact with probability Prob at each
// iteration (§7.3.1 uses Fact=6, Prob=1/n).
type Random struct {
	// Fact is the multiplicative slowdown applied when drawn.
	Fact float64
	// Prob is the per-iteration probability of drawing the slowdown.
	Prob float64
}

// Factor implements Slowdown.
func (r Random) Factor(_, _ int, rng *rand.Rand) float64 {
	if rng.Float64() < r.Prob {
		return r.Fact
	}
	return 1
}

// String names the source for experiment labels.
func (r Random) String() string { return fmt.Sprintf("random(%gx,p=%.3f)", r.Fact, r.Prob) }

// Deterministic slows fixed workers by fixed factors (§7.3.5 uses one
// worker at 4×).
type Deterministic struct {
	// Factors maps slowed workers to their multiplicative factors;
	// workers not present run at full speed.
	Factors map[int]float64
}

// Factor implements Slowdown.
func (d Deterministic) Factor(w, _ int, _ *rand.Rand) float64 {
	if f, ok := d.Factors[w]; ok {
		return f
	}
	return 1
}

// String names the source for experiment labels.
func (d Deterministic) String() string { return fmt.Sprintf("deterministic(%v)", d.Factors) }

// Combined multiplies several slowdown sources.
type Combined []Slowdown

// Factor implements Slowdown.
func (c Combined) Factor(w, iter int, rng *rand.Rand) float64 {
	f := 1.0
	for _, s := range c {
		f *= s.Factor(w, iter, rng)
	}
	return f
}

// String names the source for experiment labels.
func (c Combined) String() string { return fmt.Sprintf("combined(%d sources)", len(c)) }

// Compute is the per-iteration compute-time model: a homogeneous base
// duration scaled by the slowdown source.
type Compute struct {
	// Base is the homogeneous per-iteration gradient time.
	Base time.Duration
	// Slow scales Base per worker and iteration; nil means None.
	Slow Slowdown
}

// WorkerRNG returns worker w's slowdown RNG for run seed seed — the
// rng IterTime draws from. The simulator and the live plane both build
// it here, so random profiles draw identical factor sequences on both.
// Its source is seeded on the first draw, so a profile that never
// draws (None, Deterministic) never pays for seeding.
func WorkerRNG(seed int64, w int) *rand.Rand {
	return rand.New(&lazySource{seed: seed + int64(w)*104729 + 11})
}

// lazySource is seeded.NewSource(seed), created on the first draw.
// A source is 4.9 KB of state and seeding it costs about a thousand
// draws, and a cluster holds one slowdown RNG per worker.
type lazySource struct {
	seed int64
	src  *seeded.Source
}

func (s *lazySource) source() *seeded.Source {
	if s.src == nil {
		s.src = seeded.NewSource(s.seed)
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.source().Int63() }
func (s *lazySource) Uint64() uint64  { return s.source().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// IterTime returns the modeled gradient-computation time of worker w
// at iteration iter.
func (c Compute) IterTime(w, iter int, rng *rand.Rand) time.Duration {
	slow := c.Slow
	if slow == nil {
		slow = None{}
	}
	f := slow.Factor(w, iter, rng)
	if f < 1 {
		f = 1
	}
	return time.Duration(float64(c.Base) * f)
}
