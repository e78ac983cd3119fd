package core

// Option validation of the two baseline modes: every rejection is one
// row, pinned to its message. The runs themselves (BSP convergence and
// lockstep, AD-PSGD convergence, deadlock and stragglers) are pinned
// in internal/scenario, where a spec drives the simulator.

import (
	"strings"
	"testing"

	"hop/internal/graph"
)

// TestPSOptionValidation pins ps-mode rejections, including its graph
// constraint: a star on node 0, nothing else.
func TestPSOptionValidation(t *testing.T) {
	checkBaselineRejections(t, ModePS)
	for _, g := range []*graph.Graph{graph.Ring(5), graph.Complete(4), graph.Chain(3), graph.Star(1)} {
		t.Run("ps/"+g.Name, func(t *testing.T) {
			c := Config{Graph: g, Mode: ModePS}
			want := "ps needs a star graph with the server at node 0"
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("error %v, want one containing %q", err, want)
			}
		})
	}
}

// TestADPSGDOptionValidation pins adpsgd-mode rejections. AD-PSGD
// accepts any graph — the graph picks its formulation.
func TestADPSGDOptionValidation(t *testing.T) {
	checkBaselineRejections(t, ModeADPSGD)
	for _, g := range []*graph.Graph{graph.Star(5), graph.Complete(4), graph.DirectedRing(5)} {
		c := Config{Graph: g, Mode: ModeADPSGD}
		if err := c.Validate(); err != nil {
			t.Errorf("adpsgd on %s rejected: %v", g.Name, err)
		}
	}
}

// checkBaselineRejections runs the option rejections both baseline
// modes share, one subtest per row, on the mode's natural graph.
func checkBaselineRejections(t *testing.T, mode Mode) {
	t.Helper()
	// base returns a valid configuration of mode on its natural graph,
	// mutated per row.
	base := func(mutate func(*Config)) Config {
		g := graph.Ring(7)
		if mode == ModePS {
			g = graph.Star(5)
		}
		c := Config{Graph: g, Mode: mode, MaxIter: 10}
		if mutate != nil {
			mutate(&c)
		}
		return c
	}
	rejections := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // completed by " not compose with <mode>"
	}{
		{"serial", func(c *Config) { c.Serial = true }, "Serial does"},
		{"max_ig", func(c *Config) { c.MaxIG = 2 }, "token queues (MaxIG) do"},
		{"backup", func(c *Config) { c.Backup = 1 }, "Backup does"},
		{"staleness", func(c *Config) { c.Staleness = 2 }, "bounded staleness does"},
		{"skip", func(c *Config) { c.MaxJump = 2 }, "skipping iterations does"},
		{"send_check", func(c *Config) { c.SendCheck = true }, "SendCheck does"},
		{"rejoin", func(c *Config) { c.Rejoin, c.FaultTolerance = true, true }, "rejoin does"},
		{"restart", func(c *Config) {
			c.FaultTolerance = true
			c.Faults = make([]FaultSchedule, c.Graph.N())
			c.Faults[1] = FaultSchedule{CrashIter: 3, RestartAfter: 1}
		}, "rejoin does"},
		{"fault tolerance", func(c *Config) { c.FaultTolerance = true }, "faults do"},
		{"crash", func(c *Config) {
			c.Faults = make([]FaultSchedule, c.Graph.N())
			c.Faults[1].CrashIter = 3
		}, "faults do"},
	}

	t.Run(mode.String()+"/valid", func(t *testing.T) {
		c := base(nil)
		if err := c.Validate(); err != nil {
			t.Fatalf("rejected: %v", err)
		}
	})
	for _, r := range rejections {
		c := base(r.mutate)
		want := r.wantErr + " not compose with " + mode.String()
		t.Run(mode.String()+"/"+r.name, func(t *testing.T) {
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("error %v, want one containing %q", err, want)
			}
		})
	}
	t.Run(mode.String()+"/prague block", func(t *testing.T) {
		c := base(func(c *Config) { c.Prague = &PragueConfig{GroupSize: 2} })
		want := "Prague config set but mode is " + mode.String()
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("error %v, want one containing %q", err, want)
		}
	})
}

// TestADPSGDInitiators pins who initiates: colour 0 of a bipartite
// graph, everyone on any other graph, and each worker counts the
// initiating in-neighbours whose done markers end its run.
func TestADPSGDInitiators(t *testing.T) {
	for _, tc := range []struct {
		g            *graph.Graph
		initiators   []bool
		initiatorsIn []int
	}{
		{graph.Ring(4), []bool{true, false, true, false}, []int{0, 2, 0, 2}},
		{graph.Ring(3), []bool{true, true, true}, []int{2, 2, 2}},
		{graph.Star(3), []bool{true, false, false}, []int{0, 1, 1}},
	} {
		cfg := Config{Graph: tc.g, Mode: ModeADPSGD}
		for w := 0; w < tc.g.N(); w++ {
			p, err := NewProtocol(cfg, w, nil, NewSyncMonitor(), nopRuntime{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.initiator != tc.initiators[w] || p.initiatorsIn != tc.initiatorsIn[w] {
				t.Errorf("%s worker %d: initiator %t with %d initiating in-neighbours, want %t and %d",
					tc.g.Name, w, p.initiator, p.initiatorsIn, tc.initiators[w], tc.initiatorsIn[w])
			}
		}
	}
}
