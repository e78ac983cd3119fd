package core

import (
	"fmt"
	"testing"
	"time"

	"hop/internal/graph"
)

func TestGapTracker(t *testing.T) {
	g := NewGapTrackerFor(NewSyncMonitor(), graph.Complete(3)) // every pair adjacent
	g.Advance(0, 1)
	g.Advance(1, 4)
	g.Advance(2, 2)
	if g.MaxGap(1, 0) != 3 {
		t.Errorf("gap(1,0) = %d, want 3", g.MaxGap(1, 0))
	}
	if g.MaxGap(0, 1) != 1 { // worker 0 advanced to 1 while 1 was at 0
		t.Errorf("gap(0,1) = %d, want 1", g.MaxGap(0, 1))
	}
	g.Advance(0, 10)
	if g.MaxGapOverall() != 8 {
		t.Errorf("overall max = %d, want 8", g.MaxGapOverall())
	}
	if g.Iter(0) != 10 {
		t.Errorf("Iter(0) = %d", g.Iter(0))
	}
	snap := g.Snapshot()
	if len(snap) != 3 || snap[0] != 10 || snap[1] != 4 || snap[2] != 2 {
		t.Errorf("snapshot %v", snap)
	}
}

// directedRingBounds checks the Table 1 rows on a directed 5-ring,
// where the forward and backward path lengths differ (1 vs 4),
// exercising the asymmetric min() expressions.
func TestBoundsTable1DirectedRing(t *testing.T) {
	g := graph.DirectedRing(5)
	// Edge 0→1: dist(0→1)=1, dist(1→0)=4.
	cases := []struct {
		name string
		cfg  Config
		// bound on Iter(1)−Iter(0) and Iter(0)−Iter(1)
		fwd, back int
	}{
		{
			name: "standard",
			cfg:  Config{Graph: g},
			// Iter(1)−Iter(0): 1 is downstream, receiver: ≤ dist(0→1)=1.
			fwd:  1,
			back: 4,
		},
		{
			name: "staleness2",
			cfg:  Config{Graph: g, Staleness: 2},
			fwd:  3,  // (s+1)·1
			back: 12, // (s+1)·4
		},
		{
			name: "notifyack",
			cfg:  Config{Graph: g, Mode: ModeNotifyAck},
			fwd:  1, // min(dist(0→1), 2·dist(1→0)) = min(1, 8)
			back: 2, // min(dist(1→0), 2·dist(0→1)) = min(4, 2)
		},
		{
			name: "tokens3",
			cfg:  Config{Graph: g, MaxIG: 3},
			fwd:  1, // min(1·1, 3·4)
			back: 3, // min(1·4, 3·1)
		},
		{
			name: "backup-tokens",
			cfg:  Config{Graph: g, MaxIG: 3, Backup: 1},
			fwd:  12, // min(∞, 3·4)
			back: 3,  // min(∞, 3·1)
		},
	}
	for _, c := range cases {
		b := NewBounds(c.cfg)
		if got := b.Gap(1, 0); got != c.fwd {
			t.Errorf("%s: Gap(1,0) = %d, want %d", c.name, got, c.fwd)
		}
		if got := b.Gap(0, 1); got != c.back {
			t.Errorf("%s: Gap(0,1) = %d, want %d", c.name, got, c.back)
		}
		if got := b.Gap(2, 2); got != 0 {
			t.Errorf("%s: Gap(i,i) = %d, want 0", c.name, got)
		}
	}
}

func TestBoundsBackupWithoutTokensUnbounded(t *testing.T) {
	cfg := Config{Graph: graph.Ring(4), Backup: 1}
	b := NewBounds(cfg)
	if got := b.Gap(1, 0); got != Unbounded {
		t.Errorf("backup without tokens should be unbounded, got %d", got)
	}
	if got := b.TokenCapacity(0, 1); got != Unbounded {
		t.Errorf("token capacity without tokens should be unbounded, got %d", got)
	}
}

func TestBoundsTokenAndQueueCapacity(t *testing.T) {
	g := graph.Ring(6)
	cfg := Config{Graph: g, MaxIG: 2}
	b := NewBounds(cfg)
	// Ring 6: dist(0→1)=1 → capacity 2·2 = 4.
	if got := b.TokenCapacity(0, 1); got != 4 {
		t.Errorf("TokenCapacity(0,1) = %d, want 4", got)
	}
	// dist(0→3)=3 → 2·4 = 8.
	if got := b.TokenCapacity(0, 3); got != 8 {
		t.Errorf("TokenCapacity(0,3) = %d, want 8", got)
	}
	// Update queue: (1+2)·3 = 9.
	if got := b.UpdateQueueCapacity(0, g); got != 9 {
		t.Errorf("UpdateQueueCapacity = %d, want 9", got)
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Ring(4)
	valid := func() Config { return Config{Graph: g} }
	base := valid()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (&Config{Graph: g, MaxIG: 4, Backup: 1}).Validate(); err != nil {
		t.Errorf("backup with token queues rejected: %v", err)
	}
	split := graph.New("two-pairs", 4) // 0↔1 and 2↔3, nothing between
	split.AddEdge(0, 1)
	split.AddEdge(1, 0)
	split.AddEdge(2, 3)
	split.AddEdge(3, 2)
	// Each row breaks exactly one rule: with that rule gone, the row's
	// config validates.
	for _, c := range []struct {
		name string
		mut  func(*Config)
	}{
		{"nil graph", func(c *Config) { c.Graph = nil }},
		{"disconnected graph", func(c *Config) { c.Graph = split }},
		{"prague mode without a Prague config", func(c *Config) { c.Mode = ModePrague }},
		{"backup without tokens", func(c *Config) { c.Backup = 1 }},
		{"backup >= in-degree", func(c *Config) { c.Backup = 3; c.MaxIG = 2 }},
		{"backup plus staleness", func(c *Config) { c.Backup = 1; c.MaxIG = 3; c.Staleness = 2 }},
		{"skip without tokens", func(c *Config) { c.MaxJump = 2 }},
		{"negative MaxJump", func(c *Config) { c.MaxJump = -1; c.MaxIG = 2 }},
		{"negative staleness", func(c *Config) { c.Staleness = -2 }},
		{"notify-ack with tokens", func(c *Config) { c.Mode = ModeNotifyAck; c.MaxIG = 1 }},
		{"notify-ack with staleness", func(c *Config) { c.Mode = ModeNotifyAck; c.Staleness = 2 }},
		{"rejoin without fault tolerance", func(c *Config) { c.Rejoin = true }},
		{"wrong fault schedule count", func(c *Config) { c.FaultTolerance = true; c.Faults = make([]FaultSchedule, 1) }},
		{"negative crash iteration", func(c *Config) {
			c.FaultTolerance = true
			c.Faults = make([]FaultSchedule, 4)
			c.Faults[1].CrashIter = -1
		}},
		{"negative restart delay", func(c *Config) {
			c.FaultTolerance = true
			c.Faults = make([]FaultSchedule, 4)
			c.Faults[1] = FaultSchedule{CrashIter: 2, RestartAfter: -time.Second}
		}},
		{"restart without a crash", func(c *Config) {
			c.FaultTolerance = true
			c.Faults = make([]FaultSchedule, 4)
			c.Faults[1].RestartAfter = time.Second
		}},
		{"restart without fault tolerance", func(c *Config) {
			c.Faults = make([]FaultSchedule, 4)
			c.Faults[1] = FaultSchedule{CrashIter: 2, RestartAfter: time.Second}
		}},
		{"notify-ack with a restart", func(c *Config) {
			c.Mode, c.FaultTolerance = ModeNotifyAck, true
			c.Faults = make([]FaultSchedule, 4)
			c.Faults[1] = FaultSchedule{CrashIter: 2, RestartAfter: time.Second}
		}},
		{"token queues with a restart and an out-only neighbor", func(c *Config) {
			c.Graph, c.MaxIG, c.FaultTolerance = graph.DirectedRing(4), 2, true
			c.Faults = make([]FaultSchedule, 4)
			c.Faults[1] = FaultSchedule{CrashIter: 2, RestartAfter: time.Second}
		}},
	} {
		cfg := valid()
		c.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewProtocol(base, g.N(), nil, NewSyncMonitor(), nopRuntime{}, nil); err == nil {
		t.Errorf("worker id %d of %d accepted", g.N(), g.N())
	}
}

func TestModeString(t *testing.T) {
	for m := ModeStandard; m <= ModeADPSGD; m++ {
		if got, err := ParseMode(m.String()); got != m || err != nil {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseMode("gossip"); err == nil {
		t.Error("unknown mode name parsed")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

// BenchmarkGapAdvance measures one Advance on a ring (DESIGN.md
// §10.2): its cost does not grow with n.
func BenchmarkGapAdvance(b *testing.B) {
	for _, n := range []int{8, 16, 64, 128, 1024} {
		tr := NewGapTrackerFor(NewSyncMonitor(), graph.Ring(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr.Advance(i%n, i/n+1)
			}
		})
	}
}
