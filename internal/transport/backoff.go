package transport

// backoff.go — capped exponential backoff with jitter for connection
// retry loops (Dial's, and the live failure detector's probe): retries
// start fast, spread out exponentially under sustained failure, and
// jitter so a cluster of workers redialing one restarted peer does not
// thunder against its listener in lockstep.

import (
	"math/rand"
	"time"

	"hop/internal/seeded"
)

// BackoffConfig tunes a Backoff. The zero value uses the defaults
// noted on each field.
type BackoffConfig struct {
	// Initial is the first delay (default 50ms).
	Initial time.Duration
	// Max caps the grown delay (default 1s).
	Max time.Duration
}

// Backoff produces the sleep sequence of one retry loop: a delay d
// that doubles after each attempt up to Max, each drawn uniformly from
// [d/2, d) by a clock-seeded RNG. It is not safe for concurrent use;
// create one per loop.
type Backoff struct {
	max time.Duration
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
	return &Backoff{max: cfg.Max, cur: cfg.Initial, rng: seeded.New(time.Now().UnixNano())}
}

// Next returns the delay to sleep before the next attempt and advances
// the sequence.
func (b *Backoff) Next() time.Duration {
	d := b.cur
	b.cur = min(2*b.cur, b.max)
	return time.Duration(float64(d) * (0.5 + b.rng.Float64()*0.5))
}
