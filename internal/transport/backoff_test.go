package transport

import (
	"math/rand"
	"testing"
	"time"
)

// checkBackoff draws len(base) delays from b and checks that each lands
// in [d/2, d) for its base delay d.
func checkBackoff(t *testing.T, b *Backoff, base []time.Duration) {
	t.Helper()
	for i, d := range base {
		if got := b.Next(); got < d/2 || got >= d {
			t.Errorf("Next() #%d = %v, outside [%v, %v)", i, got, d/2, d)
		}
	}
}

// TestBackoffDeterministicSequence pins the jitter-free base sequence,
// exact exponential growth capped at Max, and checks that two Backoffs
// drawing from identically seeded RNGs sleep the same delays.
func TestBackoffDeterministicSequence(t *testing.T) {
	cfg := BackoffConfig{Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	a, b := NewBackoff(cfg), NewBackoff(cfg)
	a.rng, b.rng = rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if a.cur != w {
			t.Errorf("base delay #%d = %v, want %v", i, a.cur, w)
		}
		if ga, gb := a.Next(), b.Next(); ga != gb {
			t.Errorf("Next() #%d: same seed diverged: %v vs %v", i, ga, gb)
		}
	}
}

// TestBackoffJitterBounds: the base delay doubles after each attempt
// up to Max, and each delay is drawn from [d/2, d).
func TestBackoffJitterBounds(t *testing.T) {
	base := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	for run := 0; run < 20; run++ {
		checkBackoff(t, NewBackoff(BackoffConfig{Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond}), base)
	}
}

// TestBackoffDefaults: the zero config gets the documented defaults
// (50ms initial, 1s cap).
func TestBackoffDefaults(t *testing.T) {
	base := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, time.Second, time.Second,
	}
	checkBackoff(t, NewBackoff(BackoffConfig{}), base)
}
