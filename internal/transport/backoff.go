package transport

// backoff.go — capped exponential backoff with jitter for connection
// retry loops. One shared helper replaces the fixed 50ms sleeps that
// used to sit in four places across Dial and Redial: retries start
// fast, spread out exponentially under sustained failure, and jitter
// so a cluster of workers redialing one restarted peer does not
// thunder against its listener in lockstep.

import (
	"math/rand"
	"time"
)

// BackoffConfig tunes a Backoff. The zero value uses the defaults
// noted on each field.
type BackoffConfig struct {
	// Initial is the first delay (default 50ms).
	Initial time.Duration
	// Max caps the grown delay (default 1s).
	Max time.Duration
	// Factor multiplies the delay after each attempt (default 2).
	Factor float64
	// Jitter is the fraction of each delay drawn uniformly at random
	// (default 0.5): a delay d becomes d·(1−Jitter) + U[0,1)·d·Jitter.
	// Negative disables jitter entirely, making delays exact — the
	// deterministic mode tests pin sequences against.
	Jitter float64
	// Seed seeds the jitter RNG; 0 derives a seed from the clock.
	Seed int64
}

// Backoff produces the sleep sequence of one retry loop. It is not
// safe for concurrent use; create one per loop.
type Backoff struct {
	cfg BackoffConfig
	cur time.Duration
	rng *rand.Rand
}

// NewBackoff builds a Backoff, applying the documented defaults to
// unset fields.
func NewBackoff(cfg BackoffConfig) *Backoff {
	if cfg.Initial <= 0 {
		cfg.Initial = 50 * time.Millisecond
	}
	if cfg.Max <= 0 {
		cfg.Max = time.Second
	}
	if cfg.Max < cfg.Initial {
		cfg.Max = cfg.Initial
	}
	if cfg.Factor < 1 {
		cfg.Factor = 2
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.5
	}
	if cfg.Jitter > 1 {
		cfg.Jitter = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Backoff{cfg: cfg, cur: cfg.Initial, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the delay to sleep before the next attempt and advances
// the sequence.
func (b *Backoff) Next() time.Duration {
	d := b.cur
	grown := time.Duration(float64(b.cur) * b.cfg.Factor)
	if grown > b.cfg.Max {
		grown = b.cfg.Max
	}
	b.cur = grown
	if j := b.cfg.Jitter; j > 0 {
		d = time.Duration(float64(d) * (1 - j + b.rng.Float64()*j))
	}
	return d
}
