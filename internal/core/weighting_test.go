package core

import "testing"

// TestStaleWeightingValues pins Eq. 2: an update's weight is its
// freshness inside the staleness window, floored at 1.
func TestStaleWeightingValues(t *testing.T) {
	cases := []struct {
		fresh int
		want  float64
	}{
		{1, 1},
		{4, 4},
		{0, 1}, // floored
		{-3, 1},
	}
	for _, c := range cases {
		if got := staleWeight(c.fresh); got != c.want {
			t.Errorf("staleWeight(%d) = %g, want %g", c.fresh, got, c.want)
		}
	}
}
