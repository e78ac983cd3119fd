package transport

import (
	"testing"
	"time"
)

// TestBackoffDeterministicSequence pins the jitter-free sequence:
// exact exponential growth capped at Max.
func TestBackoffDeterministicSequence(t *testing.T) {
	b := NewBackoff(BackoffConfig{
		Initial: 10 * time.Millisecond,
		Max:     80 * time.Millisecond,
		Factor:  2,
		Jitter:  -1, // exact delays
	})
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Errorf("Next() #%d = %v, want %v", i, got, w)
		}
	}
}

// TestBackoffJitterBounds: with jitter j, each delay lands in
// [d·(1−j), d) and the same seed reproduces the same sequence.
func TestBackoffJitterBounds(t *testing.T) {
	cfg := BackoffConfig{
		Initial: 100 * time.Millisecond,
		Max:     time.Second,
		Jitter:  0.5,
		Seed:    7,
	}
	a, b := NewBackoff(cfg), NewBackoff(cfg)
	base := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, d := range base {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Errorf("#%d: same seed diverged: %v vs %v", i, ga, gb)
		}
		lo := time.Duration(float64(d) * 0.5)
		if ga < lo || ga >= d {
			t.Errorf("#%d: %v outside [%v, %v)", i, ga, lo, d)
		}
	}
}

// TestBackoffDefaults: the zero config gets the documented defaults
// (50ms initial, 1s cap).
func TestBackoffDefaults(t *testing.T) {
	b := NewBackoff(BackoffConfig{Jitter: -1})
	if got := b.Next(); got != 50*time.Millisecond {
		t.Errorf("first default delay = %v, want 50ms", got)
	}
	for i := 0; i < 20; i++ {
		if got := b.Next(); got > time.Second {
			t.Fatalf("delay %v exceeds default 1s cap", got)
		}
	}
}
