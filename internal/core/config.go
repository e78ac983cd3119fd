package core

import (
	"fmt"
	"strings"
	"time"

	"hop/internal/compress"
	"hop/internal/graph"
)

// Mode selects the coordination protocol.
type Mode int

const (
	// ModeStandard is standard decentralized training over update
	// queues (Fig. 4), optionally gap-bounded by token queues
	// (Fig. 7), with backup workers (Fig. 8), bounded staleness
	// (Fig. 9) and skipping iterations (§5) as configured.
	ModeStandard Mode = iota
	// ModeNotifyAck is the NOTIFY-ACK baseline of §3.3: the serial
	// computation graph where every Send waits for the previous
	// iteration's ACKs from all out-neighbors.
	ModeNotifyAck
	// ModePrague is the Prague partial all-reduce protocol: a seeded
	// static group scheduler partitions the cluster every step and
	// each worker averages within its scheduled group only, proceeding
	// on a quorum of member updates (prague.go). Requires
	// Config.Prague; the Hop-specific knobs (token queues, backup,
	// staleness, skipping, send check) do not compose with it.
	ModePrague
	// ModePS is the bulk-synchronous parameter server of §7.3.2
	// (Fig. 13) on a star graph: node 0 is the server, every other
	// node a leaf (baselines.go).
	ModePS
	// ModeADPSGD is AD-PSGD (§5): each worker averages with one random
	// out-neighbour per iteration, blocking for its reply. On a
	// bipartite graph colour 0 initiates and colour 1 serves; otherwise
	// every worker initiates, which can deadlock (baselines.go).
	ModeADPSGD
)

// modeNames is the one table of mode names, read by String and by
// ParseMode (the spec grammar's protocol.mode).
var modeNames = [...]string{
	ModeStandard:  "standard",
	ModeNotifyAck: "notify-ack",
	ModePrague:    "prague",
	ModePS:        "ps",
	ModeADPSGD:    "adpsgd",
}

func (m Mode) String() string {
	if m >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode returns the mode whose String is name.
func ParseMode(name string) (Mode, error) {
	for m, n := range modeNames {
		if n == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("core: unknown protocol mode %q (known: %s)", name, strings.Join(modeNames[:], ", "))
}

// FaultSchedule is one worker's scheduled fault (DESIGN.md §6).
type FaultSchedule struct {
	// CrashIter halts the worker at the start of this iteration
	// (before any send or compute); 0 means the worker never crashes.
	CrashIter int
	// RestartAfter, when > 0, restarts the crashed worker as a fresh
	// rejoining participant this long after the crash. Requires
	// CrashIter > 0 and FaultTolerance.
	RestartAfter time.Duration
}

// Config describes one decentralized training run.
type Config struct {
	Graph *graph.Graph
	Mode  Mode

	// Serial selects the serial computation graph of Fig. 2(a)
	// (compute→apply→send, gradients exact) instead of the default
	// parallel graph of Fig. 2(b) (send+compute overlap Recv).
	// NOTIFY-ACK always runs serial, as in the paper.
	Serial bool

	// MaxIG enables token queues with the given maximum adjacent
	// iteration gap when > 0 (§4.2).
	MaxIG int

	// Backup is N_buw: how many in-coming updates each worker may miss
	// per iteration (§4.3). Requires MaxIG > 0, because backup workers
	// make the gap unbounded (§3.4).
	Backup int

	// Staleness enables bounded staleness (§4.4) with bound s when > 0.
	Staleness int

	// SendCheck enables the §6.2(b) optimization: inquire the
	// receiver's iteration before sending and skip the send if the
	// receiver has already advanced past the sender.
	SendCheck bool

	// Compression selects the wire codec the live runtime compresses
	// update payloads with (named in each connection's handshake; see
	// internal/transport and DESIGN.md §2.3). The simulator models
	// payload size, not payload bytes, so simulated runs are
	// byte-identical whatever this is set to. The zero value is
	// lossless (compress.None).
	Compression compress.Spec

	// MaxJump enables skipping iterations (§5) when > 0, capping one
	// jump at this many iterations (the paper evaluates 2 and 10 in
	// Fig. 19); requires MaxIG > 0.
	MaxJump int

	// Prague configures the Prague partial all-reduce protocol
	// (prague.go); required exactly when Mode == ModePrague.
	Prague *PragueConfig

	// MaxIter stops each worker after this many iterations; 0 means
	// run until the host's deadline.
	MaxIter int

	// FaultTolerance makes worker death survivable: when a peer is
	// declared dead (DeclarePeerDead), the protocol reforms its
	// iteration graph around the departed peer instead of blocking
	// forever — it drops the peer from the in/out-neighbor sets,
	// releases the peer's token queue and pending NOTIFY-ACK edges,
	// and records a membership event in the decision trace
	// (DESIGN.md §6). Off, a dead peer wedges its neighbors — the
	// pre-fault fail-stop model.
	FaultTolerance bool

	// Faults, when non-nil, holds one scheduled fault per worker
	// (len = n; the zero FaultSchedule means no fault). Crashes fire
	// without FaultTolerance too — the run then fails rather than
	// reforms — which is how the abort-path regression tests drive a
	// real mid-run death.
	Faults []FaultSchedule

	// Rejoin marks this protocol instance a restarted worker: before
	// its first iteration it announces itself to its neighbors,
	// observes their current iterations, and fast-forwards to one past
	// the newest (DESIGN.md §6.3). Requires FaultTolerance. Meaningful
	// per instance, not per cluster — a restart constructs a new
	// Protocol from Restarted.
	Rejoin bool

	// Seed derives each worker's mini-batch RNG (seed + worker id).
	Seed int64
}

// Restarted returns the configuration a restarted worker runs under:
// Rejoin set and no fault schedule, so the replacement announces
// itself (DESIGN.md §6.3) and does not halt again. Faults is dropped,
// not written: the receiver's schedule slice is left as it was.
func (c Config) Restarted() Config {
	c.Rejoin = true
	c.Faults = nil
	return c
}

// Validate checks the constraints the paper establishes on the
// protocol knobs (e.g. backup workers strictly require token queues,
// and the non-Hop modes reject every hopOnlyKnobs row). NewProtocol
// applies it, so a single-worker runtime (one live process) is checked
// without materializing the whole cluster.
func (c *Config) Validate() error {
	if c.Graph == nil {
		return fmt.Errorf("core: config has no graph")
	}
	if err := c.Graph.Validate(); err != nil {
		return err
	}
	n := c.Graph.N()
	if c.Mode == ModePrague {
		if c.Prague == nil {
			return fmt.Errorf("core: prague mode requires a Prague config")
		}
		if err := c.Prague.validate(n); err != nil {
			return err
		}
	} else if c.Prague != nil {
		return fmt.Errorf("core: Prague config set but mode is %v", c.Mode)
	}
	if c.Mode == ModePS && !isStarOnZero(c.Graph) {
		return fmt.Errorf("core: ps needs a star graph with the server at node 0, got %v", c.Graph)
	}
	if c.Mode == ModePrague || c.Mode == ModePS || c.Mode == ModeADPSGD {
		for _, k := range hopOnlyKnobs {
			if k.set(c) {
				return fmt.Errorf("core: %s not compose with %v: %s", k.knob, c.Mode, k.why)
			}
		}
	}
	if c.Backup > 0 {
		if c.MaxIG <= 0 {
			return fmt.Errorf("core: backup workers make the iteration gap unbounded; token queues (MaxIG>0) are required (§3.4)")
		}
		for i := 0; i < n; i++ {
			if c.Backup >= c.Graph.InDegreeWithSelf(i) {
				return fmt.Errorf("core: worker %d has %d in-updates per iteration but Backup=%d would require zero", i, c.Graph.InDegreeWithSelf(i), c.Backup)
			}
		}
	}
	if c.Staleness > 0 && c.Backup > 0 {
		return fmt.Errorf("core: bounded staleness and backup workers are alternative Recv/Reduce semantics; enable one")
	}
	if c.MaxJump < 0 {
		return fmt.Errorf("core: MaxJump must be >=0, got %d", c.MaxJump)
	}
	if c.Staleness < 0 {
		return fmt.Errorf("core: Staleness must be >=0, got %d", c.Staleness)
	}
	if c.MaxJump > 0 && c.MaxIG <= 0 {
		return fmt.Errorf("core: skipping iterations requires token queues (MaxIG>0)")
	}
	if err := c.Compression.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Backup and skipping need token queues (checked above), so MaxIG
	// stands for them here.
	if c.Mode == ModeNotifyAck && (c.MaxIG > 0 || c.Staleness > 0 || c.SendCheck) {
		return fmt.Errorf("core: NOTIFY-ACK is the fixed-gap baseline; token queues, backup workers, staleness, skipping and the send check do not compose with it (§3.4-3.5)")
	}
	if c.Mode == ModeNotifyAck && c.restarts() {
		return fmt.Errorf("core: NOTIFY-ACK does not compose with crash restarts: a survivor gates Send(k) on an ACK(k-1) that the rejoiner, starting past k, never sends (DESIGN.md §6.3)")
	}
	if c.Faults != nil && len(c.Faults) != n {
		return fmt.Errorf("core: %d fault schedules for %d workers", len(c.Faults), n)
	}
	for i, f := range c.Faults {
		if f.CrashIter < 0 {
			return fmt.Errorf("core: worker %d has negative crash iteration %d", i, f.CrashIter)
		}
		if f.RestartAfter < 0 {
			return fmt.Errorf("core: worker %d has negative restart delay %v", i, f.RestartAfter)
		}
		if f.RestartAfter > 0 && f.CrashIter == 0 {
			return fmt.Errorf("core: worker %d has a restart delay but no crash iteration", i)
		}
		if f.RestartAfter > 0 && !c.FaultTolerance {
			return fmt.Errorf("core: worker %d restarts, which requires FaultTolerance (rejoin needs elastic membership)", i)
		}
		if f.RestartAfter > 0 && c.MaxIG > 0 {
			for _, j := range c.Graph.Out(i) {
				if !containsInt(c.Graph.In(i), j) {
					return fmt.Errorf("core: worker %d restarts with token queues, but its out-neighbor %d is not an in-neighbor: the rejoin iteration comes from in-neighbors only, and %d may be more than MaxIG past it (DESIGN.md §6.3)", i, j, j)
				}
			}
		}
	}
	if c.Rejoin && !c.FaultTolerance {
		return fmt.Errorf("core: Rejoin requires FaultTolerance")
	}
	return nil
}

// ProtocolPeers returns the workers w exchanges protocol messages
// with, in deterministic order: its graph neighbors (in ∪ out) in
// every mode but Prague, whose groups span the whole cluster regardless
// of topology, so every other worker there. It is the set w's death
// notice reaches and the set a live worker dials.
func (c *Config) ProtocolPeers(w int) []int {
	n := c.Graph.N()
	if c.Mode == ModePrague {
		peers := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != w {
				peers = append(peers, j)
			}
		}
		return peers
	}
	seen := make(map[int]bool)
	var peers []int
	for _, j := range append(append([]int(nil), c.Graph.In(w)...), c.Graph.Out(w)...) {
		if !seen[j] {
			seen[j] = true
			peers = append(peers, j)
		}
	}
	return peers
}

// hopOnlyKnobs is the one table of Hop knobs the Prague, PS and
// AD-PSGD modes reject: each row says when the knob is set and why it
// cannot compose. Prague alone keeps crash faults — its groups reform
// around a dead member (DESIGN.md §8.3) — so the fault row exempts it.
var hopOnlyKnobs = []struct {
	knob string // subject of "... not compose with <mode>"
	set  func(c *Config) bool
	why  string
}{
	{"Serial does", func(c *Config) bool { return c.Serial },
		"the mode fixes its own computation graph"},
	{"token queues (MaxIG) do", func(c *Config) bool { return c.MaxIG > 0 },
		"the mode's own exchange sets the iteration gap"},
	{"Backup does", func(c *Config) bool { return c.Backup > 0 },
		"backup workers relax Hop's neighbour reduce, which the mode does not run"},
	{"bounded staleness does", func(c *Config) bool { return c.Staleness > 0 },
		"bounded staleness relaxes Hop's neighbour reduce, which the mode does not run"},
	{"skipping iterations does", func(c *Config) bool { return c.MaxJump > 0 },
		"a jump is triggered by token counts, which the mode does not keep"},
	{"SendCheck does", func(c *Config) bool { return c.SendCheck },
		"every send of the mode is awaited by its receiver"},
	{"rejoin does", (*Config).restarts,
		"the rejoin handshake waits for neighbour updates the mode does not send"},
	{"faults do", func(c *Config) bool {
		return c.Mode != ModePrague && (c.FaultTolerance || c.Faults != nil)
	}, "the baseline has no elastic membership"},
}

// restarts reports whether some worker restarts after a crash, or this
// instance is the restarted one.
func (c *Config) restarts() bool {
	for _, f := range c.Faults {
		if f.RestartAfter > 0 {
			return true
		}
	}
	return c.Rejoin
}

// isStarOnZero reports whether g is a star with node 0 as the hub:
// every other node exchanges with node 0 and with nobody else.
func isStarOnZero(g *graph.Graph) bool {
	n := g.N()
	if n < 2 || len(g.Out(0)) != n-1 || len(g.In(0)) != n-1 {
		return false
	}
	for i := 1; i < n; i++ {
		if len(g.Out(i)) != 1 || len(g.In(i)) != 1 {
			return false
		}
	}
	return true
}
