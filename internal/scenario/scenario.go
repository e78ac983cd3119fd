// Package scenario is the declarative experiment layer: a Spec names
// every axis of one simulated training run — workload, topology,
// placement, protocol, heterogeneity profile, network condition,
// compression, payload size, deadline and seed — as plain data, and
// Resolve turns it into the cluster.Options the simulator executes.
//
// Specs are written as small JSON documents (Parse/JSON round-trip
// exactly) or composed directly in Go; a Sweep (sweep.go) expands axis
// grids of partial-Spec patches into scenario sets and runs them in
// parallel. Every future "what if" — slow links × TopK, stragglers ×
// topology — is one spec away instead of a code change. The grammar,
// axis semantics and determinism contract are specified in DESIGN.md
// §4.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"hop/internal/chaos"
	"hop/internal/cluster"
	"hop/internal/compress"
	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/hetero"
	"hop/internal/model"
	"hop/internal/netsim"
)

// Duration is a time.Duration that marshals to and from the
// human-writable Go duration syntax ("500ms", "4s", "2m"); plain JSON
// numbers are accepted on input as nanoseconds.
type Duration time.Duration

// MarshalJSON renders the duration as a string ("4s").
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"4s\" or nanoseconds, got %s", b)
	}
	*d = Duration(n)
	return nil
}

// Topology selects the communication graph and worker placement.
type Topology struct {
	// Kind names the graph family: ring | ring-based | double-ring |
	// complete | star | chain | directed-ring build a graph over
	// Workers nodes; hier-ring | hier-allreduce are the hierarchical
	// kinds (one group of workers per machine — a ring or a full
	// all-reduce inside each group — under an inter-group gossip
	// ring); expander is the degree-4 low-diameter kind, its chords
	// seeded by 600+spec seed;
	// setting1 | setting2 | setting3 are the fixed Figure 21 graphs
	// (Workers and Machines are ignored for them).
	Kind string `json:"kind"`
	// Workers is the node count for parametric kinds; 0 means the
	// paper's 16.
	Workers int `json:"workers,omitempty"`
	// Machines is the number of physical machines workers are placed
	// on in contiguous blocks; 0 means the paper's 4. For the hier-*
	// kinds it is also the group count.
	Machines int `json:"machines,omitempty"`
}

// BuildSeeded constructs the configured graph with its placement,
// deriving the expander kind's chord seed from the spec seed.
func (t Topology) BuildSeeded(specSeed int64) (*graph.Graph, error) {
	switch t.Kind {
	case "setting1":
		return graph.Setting1(), nil
	case "setting2":
		return graph.Setting2(), nil
	case "setting3":
		return graph.Setting3(), nil
	}
	n := t.Workers
	if n == 0 {
		n = 16
	}
	if n < 1 {
		return nil, fmt.Errorf("scenario: topology needs >= 1 worker, got %d", n)
	}
	m := t.Machines
	if m == 0 {
		m = 4
	}
	if m < 1 || m > n {
		return nil, fmt.Errorf("scenario: %d machines for %d workers", m, n)
	}
	var g *graph.Graph
	switch t.Kind {
	case "", "ring":
		g = graph.Ring(n)
	case "ring-based":
		g = graph.RingBased(n)
	case "double-ring":
		g = graph.DoubleRing(n)
	case "complete":
		g = graph.Complete(n)
	case "star":
		g = graph.Star(n)
	case "chain":
		g = graph.Chain(n)
	case "directed-ring":
		g = graph.DirectedRing(n)
	case "hier-ring":
		// The hierarchical generators assign their own machine-aligned
		// placement; EvenPlacement below would be a no-op re-derivation.
		return graph.HierRing(n, m), nil
	case "hier-allreduce":
		return graph.HierAllReduce(n, m), nil
	case "expander":
		if n < 4 {
			return nil, fmt.Errorf("scenario: expander topology needs >= 4 workers, got %d", n)
		}
		g = graph.Expander(n, 4, 600+specSeed)
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q", t.Kind)
	}
	graph.EvenPlacement(g, m)
	return g, nil
}

// Protocol selects the coordination settings of core.Config in
// declarative form.
type Protocol struct {
	// Mode is "" | "standard" | "notify-ack" | "prague" | "ps" |
	// "adpsgd". ps needs a star topology: node 0 is the server, placed
	// on its own machine after the leaves' machines, and the eval
	// worker is leaf 1. adpsgd lets the graph pick who initiates: the
	// bipartite formulation on a bipartite graph, everyone otherwise.
	Mode string `json:"mode,omitempty"`
	// GroupSize is the Prague partial all-reduce group size (prague
	// mode only; required, 2 ≤ size ≤ workers).
	GroupSize int `json:"group_size,omitempty"`
	// GroupQuorum is how many member updates — the worker's own
	// included — a Prague group reduce waits for; 0 means the full
	// live group (prague mode only).
	GroupQuorum int `json:"group_quorum,omitempty"`
	// Serial selects the serial computation graph (Fig. 2a).
	Serial bool `json:"serial,omitempty"`
	// MaxIG enables token queues with this max adjacent iteration gap
	// when > 0 (§4.2 of the paper).
	MaxIG int `json:"max_ig,omitempty"`
	// Backup is N_buw, the in-updates each worker may miss (§4.3).
	Backup int `json:"backup,omitempty"`
	// Staleness enables bounded staleness (§4.4) with bound s when > 0.
	Staleness int `json:"staleness,omitempty"`
	// SendCheck enables the §6.2(b) receiver-iteration send check.
	SendCheck bool `json:"send_check,omitempty"`
	// SkipMaxJump enables skipping iterations (§5) when > 0, capping
	// one jump at this many iterations.
	SkipMaxJump int `json:"skip_max_jump,omitempty"`
}

// Hetero selects the compute-heterogeneity profile.
type Hetero struct {
	// Kind is "" | "none" | "random" | "det".
	Kind string `json:"kind,omitempty"`
	// Factor is the slowdown multiplier; 0 means 6 for random (§7.3.1)
	// and 4 for det (§7.3.5).
	Factor float64 `json:"factor,omitempty"`
	// Prob is the per-iteration slowdown probability for random; 0
	// means 1/workers, the paper's choice.
	Prob float64 `json:"prob,omitempty"`
	// Workers lists the workers a det profile slows; empty means
	// worker 0.
	Workers []int `json:"workers,omitempty"`
}

// Slowdown resolves the profile against a graph of n workers.
func (h Hetero) Slowdown(n int) (hetero.Slowdown, error) {
	switch h.Kind {
	case "", "none":
		return hetero.None{}, nil
	case "random":
		f := h.Factor
		if f == 0 {
			f = 6
		}
		p := h.Prob
		if p == 0 {
			p = 1.0 / float64(n)
		}
		return hetero.Random{Fact: f, Prob: p}, nil
	case "det", "deterministic":
		f := h.Factor
		if f == 0 {
			f = 4
		}
		ws := h.Workers
		if len(ws) == 0 {
			ws = []int{0}
		}
		factors := make(map[int]float64, len(ws))
		for _, w := range ws {
			if w < 0 || w >= n {
				return nil, fmt.Errorf("scenario: det slowdown worker %d out of range [0,%d)", w, n)
			}
			factors[w] = f
		}
		return hetero.Deterministic{Factors: factors}, nil
	}
	return nil, fmt.Errorf("scenario: unknown hetero kind %q", h.Kind)
}

// Net selects the network condition: the paper's 1GbE testbed
// (netsim.Default1GbE), its NIC speed optionally overridden, plus the
// heterogeneous link classes of netsim.
type Net struct {
	// InterBandwidth overrides the cross-machine NIC speed in bytes
	// per second (e.g. 12.5e6 for 100 Mbit/s).
	InterBandwidth float64 `json:"inter_bandwidth,omitempty"`
	// MachineBandwidth gives individual machines their own NIC speed
	// (bytes/s); entry m overrides machine m, entries <= 0 keep the
	// uniform speed. This is the heterogeneous-bandwidth link class.
	MachineBandwidth []float64 `json:"machine_bandwidth,omitempty"`
	// Burst enables bursty straggler links (netsim.BurstConfig).
	Burst *Burst `json:"burst,omitempty"`
}

// Burst is the declarative form of netsim.BurstConfig: every
// machine's NIC alternates between full speed and speed/Factor on a
// deterministic schedule seeded by 300+spec seed.
type Burst struct {
	// Factor divides NIC bandwidth during a burst (> 1).
	Factor float64 `json:"factor"`
	// MeanOn is the mean degraded-period duration.
	MeanOn Duration `json:"mean_on"`
	// MeanOff is the mean full-speed duration between bursts.
	MeanOff Duration `json:"mean_off"`
}

// Fault is the declarative fault axis: scheduled worker crashes (and
// optional restarts) under the elastic-membership protocol of DESIGN.md
// §6. Its presence — even empty — turns on core.Config.FaultTolerance,
// so survivors reform the iteration graph around a dead peer instead of
// wedging.
type Fault struct {
	// Crashes schedules worker halts; at most one per worker.
	Crashes []Crash `json:"crashes,omitempty"`
	// Net injects seeded network faults into the data plane: per-link
	// drop/duplicate/reorder/corrupt probabilities and partition
	// windows. The one clause both planes read: deterministically on the
	// simulator (netsim.Config.Chaos), as seeded frame-level injection
	// on live TCP (live.WorkerConfig.Chaos). Loss-inducing knobs need a
	// protocol configuration that can absorb loss (validateNetFault).
	Net *chaos.Config `json:"net,omitempty"`
}

// validateNetFault refuses a fault.net clause the resolved protocol
// cannot run under. The clause's own ranges are chaos.Config.Validate's
// (through netsim.Config.Validate); these are only the rules that pair
// a fault with a protocol. TestNetFaultRejectionsObserved runs each one
// past this check and pins what happens.
func validateNetFault(nf *chaos.Config, cfg core.Config, comp compress.Spec) error {
	if cfg.Mode == core.ModePrague {
		// Prague's quorum counts queue entries, not distinct members, so
		// a duplicated frame can stand in for a missing member and close a
		// reduce the schedule meant to wait for; and with no staleness
		// bound, a lost update wedges its group.
		return fmt.Errorf("scenario: fault net chaos cannot run under prague (count-based quorum; no staleness bound to absorb loss)")
	}
	for i, p := range nf.Partitions {
		if cfg.Staleness > 0 && p.ToIter-p.FromIter > cfg.Staleness {
			// A window longer than the staleness bound lets both sides
			// block on each other with every bridging update dropped —
			// a guaranteed wedge, not a survivable fault.
			return fmt.Errorf("scenario: fault net partition %d window length %d exceeds staleness %d (would deadlock the pair)",
				i, p.ToIter-p.FromIter, cfg.Staleness)
		}
	}
	if nf.Duplicate > 0 && cfg.MaxIG > 0 {
		// The live chaos interceptor duplicates token frames too, and
		// every copy is a grant: the consumer's counter climbs past
		// Theorem 2's bound. The simulator's grants bypass the fabric.
		return fmt.Errorf("scenario: fault net duplicate cannot run with token queues (a duplicated live token frame grants twice)")
	}
	if nf.Lossy() {
		// Backup workers would absorb loss too, but they need token
		// queues, which the next rule refuses; notify-ack refuses
		// staleness (core).
		if cfg.Staleness <= 0 {
			return fmt.Errorf("scenario: fault net loss (drop/corrupt/partitions) needs bounded staleness to absorb missing updates")
		}
		if cfg.MaxIG > 0 {
			// Token grants travel as token frames on the live wire only:
			// the simulator hands a grant straight to its consumer, past
			// the fabric and its faults. A lost live token frame starves
			// its receiver.
			return fmt.Errorf("scenario: fault net loss cannot run with token queues (a lost live token frame starves the receiver)")
		}
	}
	if comp.Kind == compress.TopK && (nf.Drop > 0 || nf.Duplicate > 0 || len(nf.Partitions) > 0) {
		// TopK updates are a stateful delta stream: a silently lost or
		// doubled message desyncs the receiver's error-feedback replica
		// with no teardown to trigger a resync. Corruption is fine —
		// the CRC drops the connection and the redial's dense
		// warm-start frame resyncs the stream.
		return fmt.Errorf("scenario: fault net drop/duplicate/partitions cannot run under topk compression (silent delta-stream desync); corrupt is allowed")
	}
	return nil
}

// Crash halts one worker at the top of iteration Iter (its last update
// is therefore tagged Iter-1 — the deterministic cut the differential
// tests pin). A positive Restart brings the worker back after that
// delay (virtual time in simulation, wall-clock scaled by the live
// options' TimeScale on TCP) as a rejoining participant.
type Crash struct {
	// Worker is the worker to crash.
	Worker int `json:"worker"`
	// Iter is the iteration at whose top the worker halts (>= 1).
	Iter int `json:"iter"`
	// Restart, when > 0, restarts the worker this long after the crash.
	Restart Duration `json:"restart,omitempty"`
}

// faults resolves the axis against n workers into core.Config form.
func (f *Fault) faults(n int) ([]core.FaultSchedule, error) {
	if f == nil {
		return nil, nil
	}
	out := make([]core.FaultSchedule, n)
	for _, c := range f.Crashes {
		if c.Worker < 0 || c.Worker >= n {
			return nil, fmt.Errorf("scenario: fault crash worker %d out of range [0,%d)", c.Worker, n)
		}
		if out[c.Worker].CrashIter != 0 {
			return nil, fmt.Errorf("scenario: duplicate fault crash for worker %d", c.Worker)
		}
		if c.Iter < 1 {
			return nil, fmt.Errorf("scenario: fault crash iter must be >= 1, got %d", c.Iter)
		}
		out[c.Worker] = core.FaultSchedule{
			CrashIter:    c.Iter,
			RestartAfter: time.Duration(c.Restart),
		}
	}
	return out, nil
}

// isZero reports whether no network field is set.
func (n *Net) isZero() bool {
	return n.InterBandwidth == 0 && n.MachineBandwidth == nil && n.Burst == nil
}

// config resolves to a netsim.Config. A fully-unset Net returns the
// zero config (cluster.Run substitutes Default1GbE); any override
// starts from Default1GbE.
func (n *Net) config(specSeed int64) netsim.Config {
	if n.isZero() {
		return netsim.Config{}
	}
	cfg := netsim.Default1GbE()
	if n.InterBandwidth > 0 {
		cfg.Inter.Bandwidth = n.InterBandwidth
	}
	if len(n.MachineBandwidth) > 0 {
		cfg.MachineBandwidth = append([]float64(nil), n.MachineBandwidth...)
	}
	if b := n.Burst; b != nil {
		cfg.Burst = &netsim.BurstConfig{
			Factor:  b.Factor,
			MeanOn:  time.Duration(b.MeanOn),
			MeanOff: time.Duration(b.MeanOff),
			Seed:    300 + specSeed,
		}
	}
	return cfg
}

// Spec is one declarative scenario: everything a simulated run depends
// on, as plain data. The zero value of every field means "the
// workload/paper default"; see DESIGN.md §4.2 for the axis semantics.
type Spec struct {
	// Name labels the scenario in reports; sweeps fill it in from the
	// sweep and cell names.
	Name string `json:"name,omitempty"`
	// Workload is "cnn" | "svm" | "quadratic" (see Workloads).
	Workload string `json:"workload,omitempty"`
	// Topology selects graph, worker count and machine placement.
	Topology Topology `json:"topology,omitempty"`
	// Protocol selects the coordination settings.
	Protocol Protocol `json:"protocol,omitempty"`
	// Hetero selects the compute-heterogeneity profile.
	Hetero Hetero `json:"hetero,omitempty"`
	// Net selects the network condition.
	Net Net `json:"net,omitempty"`
	// Fault schedules worker crashes and restarts; non-nil (even empty)
	// enables fault tolerance, reforming the graph around dead peers.
	Fault *Fault `json:"fault,omitempty"`
	// Compression is the wire-codec spec ("none", "float32",
	// "topk[:ratio]"). The simulator models its payload-size effect:
	// the modeled update size is PayloadBytes scaled by the codec's
	// nominal wire ratio (DESIGN.md §4.2). It is also carried into
	// core.Config.Compression for live use of the same spec.
	Compression string `json:"compression,omitempty"`
	// PayloadBytes is the modeled uncompressed update size; 0 means
	// the workload's paper-scale default.
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// ComputeBase is the homogeneous per-iteration gradient time; 0
	// means the workload default.
	ComputeBase Duration `json:"compute_base,omitempty"`
	// Deadline stops the run at this virtual time; 0 means run to
	// MaxIter (one of the two must be set).
	Deadline Duration `json:"deadline,omitempty"`
	// MaxIter stops each worker after this many iterations.
	MaxIter int `json:"max_iter,omitempty"`
	// EvalEvery is the held-out evaluation cadence in probe-worker
	// iterations; 0 means the workload default.
	EvalEvery int `json:"eval_every,omitempty"`
	// TargetLoss is the eval-loss level time-to-target metrics use; 0
	// means the workload default.
	TargetLoss float64 `json:"target_loss,omitempty"`
	// Seed is the scenario seed S. Runs derive every RNG stream from
	// it (mini-batch seed 100+S, slowdown 200+S, burst 300+S, chaos
	// 400+S, Prague groups 500+S, expander chords 600+S), matching the
	// experiment registry's historical layering.
	Seed int64 `json:"seed,omitempty"`
}

// Workload bundles a named workload's trainer prototype with its
// paper-scale cost model (DESIGN.md §1): compute seconds per
// iteration and wire bytes per update come from paper-scale constants,
// statistical behaviour from really training the laptop-scale model.
type Workload struct {
	// Name is the spec string ("cnn", "svm", "quadratic").
	Name string
	// NewTrainer builds the prototype replica (cloned per worker).
	NewTrainer func() model.Trainer
	// ComputeBase is the homogeneous per-iteration gradient time.
	ComputeBase time.Duration
	// PayloadBytes is the paper-scale uncompressed update size.
	PayloadBytes int
	// EvalEvery is the default evaluation cadence.
	EvalEvery int
	// TargetLoss is the default time-to-target eval-loss level.
	TargetLoss float64
}

// Workloads returns the defined workloads: the paper's two tasks plus
// the toy quadratic used by quickstarts and fast sweeps.
func Workloads() []Workload {
	return []Workload{
		{
			Name:         "cnn",
			NewTrainer:   func() model.Trainer { return model.NewCNN(model.DefaultCNNConfig()) },
			ComputeBase:  4 * time.Second,
			PayloadBytes: 37 << 20, // VGG11-CIFAR fp32
			EvalEvery:    5,
			TargetLoss:   0.9,
		},
		{
			Name:         "svm",
			NewTrainer:   func() model.Trainer { return model.NewSVM(model.DefaultSVMConfig()) },
			ComputeBase:  100 * time.Millisecond,
			PayloadBytes: 1400 << 10, // webspam-scale dense weights
			EvalEvery:    10,
			TargetLoss:   0.6,
		},
		{
			Name: "quadratic",
			NewTrainer: func() model.Trainer {
				return model.NewQuadratic([]float64{5, 5, 5, 5}, []float64{1, 2, 0, -1}, 0.2, 0.05)
			},
			ComputeBase:  100 * time.Millisecond,
			PayloadBytes: 1 << 16,
			EvalEvery:    10,
			TargetLoss:   0.1,
		},
	}
}

// WorkloadByName resolves a workload spec string ("" means cnn).
func WorkloadByName(name string) (Workload, error) {
	if name == "" {
		name = "cnn"
	}
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	known := make([]string, 0, 3)
	for _, w := range Workloads() {
		known = append(known, w.Name)
	}
	return Workload{}, fmt.Errorf("scenario: unknown workload %q (known: %s)", name, strings.Join(known, ", "))
}

// WireRatio returns the nominal on-the-wire size ratio of a
// compression spec relative to raw float64 coordinates: 1 for none,
// 0.5 for float32, ~ratio for topk (8 bytes of index+value per kept
// coordinate vs 8 raw bytes per coordinate). The simulator multiplies
// the modeled payload by it (DESIGN.md §4.2); live runs realize the
// same ratio on real sockets.
func WireRatio(spec compress.Spec) float64 {
	switch spec.Kind {
	case compress.Float32:
		return 0.5
	case compress.TopK:
		r := spec.Ratio
		if r == 0 {
			r = compress.DefaultTopKRatio
		}
		return r
	}
	return 1
}

// strictDecode unmarshals exactly one JSON document into v, rejecting
// unknown fields and trailing content.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// Parse decodes a JSON scenario spec. Unknown fields and trailing
// content are rejected so a typoed axis name or a mangled file fails
// loudly instead of silently running the default.
func Parse(data []byte) (Spec, error) {
	var s Spec
	if err := strictDecode(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	return s, nil
}

// JSON renders the spec as indented canonical JSON; Parse(s.JSON())
// round-trips exactly.
func (s Spec) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Validate resolves the spec without running it and reports the first
// configuration error. It skips trainer construction, so validating a
// large grid does not build (and discard) a model per cell.
func (s Spec) Validate() error {
	_, err := s.resolve(false)
	return err
}

// Resolve turns the spec into runnable cluster options. The returned
// options carry fresh trainer prototypes; resolving twice yields
// independent, identically-seeded runs.
func (s Spec) Resolve() (cluster.Options, error) {
	return s.resolve(true)
}

// resolve does the work of Resolve; buildTrainer=false leaves
// Options.Trainer nil for validation-only callers.
func (s Spec) resolve(buildTrainer bool) (cluster.Options, error) {
	var zero cluster.Options
	w, err := WorkloadByName(s.Workload)
	if err != nil {
		return zero, err
	}
	g, err := s.Topology.BuildSeeded(s.Seed)
	if err != nil {
		return zero, err
	}
	slow, err := s.Hetero.Slowdown(g.N())
	if err != nil {
		return zero, err
	}
	comp, err := compress.ParseSpec(s.Compression)
	if err != nil {
		return zero, fmt.Errorf("scenario: %w", err)
	}

	cfg := core.Config{
		Graph:       g,
		Serial:      s.Protocol.Serial,
		MaxIG:       s.Protocol.MaxIG,
		Backup:      s.Protocol.Backup,
		Staleness:   s.Protocol.Staleness,
		SendCheck:   s.Protocol.SendCheck,
		MaxJump:     s.Protocol.SkipMaxJump,
		Compression: comp,
		MaxIter:     s.MaxIter,
		Seed:        100 + s.Seed,
	}
	if s.Protocol.Mode != "" {
		if cfg.Mode, err = core.ParseMode(s.Protocol.Mode); err != nil {
			return zero, err
		}
	}
	if cfg.Mode == core.ModePrague || s.Protocol.GroupSize != 0 || s.Protocol.GroupQuorum != 0 {
		// Core rejects group knobs under any other mode.
		cfg.Prague = &core.PragueConfig{
			GroupSize: s.Protocol.GroupSize,
			Quorum:    s.Protocol.GroupQuorum,
			Seed:      500 + s.Seed,
		}
	}
	if s.Fault != nil {
		faults, err := s.Fault.faults(g.N())
		if err != nil {
			return zero, err
		}
		cfg.FaultTolerance = true
		cfg.Faults = faults
		if s.MaxIter > 0 {
			for w, f := range faults {
				if f.CrashIter >= s.MaxIter {
					return zero, fmt.Errorf("scenario: fault crash for worker %d at iter %d is not before max_iter %d", w, f.CrashIter, s.MaxIter)
				}
			}
		}
	}
	// Surface the protocol-level constraint violations (knob
	// compositions, group size bounds, fault schedules) at spec
	// validation, not first at cluster construction — sweeps validate
	// every cell up front.
	if err := cfg.Validate(); err != nil {
		return zero, err
	}

	base := time.Duration(s.ComputeBase)
	if base == 0 {
		base = w.ComputeBase
	}
	payload := s.PayloadBytes
	if payload == 0 {
		payload = w.PayloadBytes
	}
	// The simulator models payload *size*; compression shrinks the
	// modeled update to its nominal wire ratio (never below one byte).
	payload = int(math.Ceil(float64(payload) * WireRatio(comp)))
	if payload < 1 {
		payload = 1
	}
	evalEvery := s.EvalEvery
	if evalEvery == 0 {
		evalEvery = w.EvalEvery
	}

	netCfg := s.Net.config(s.Seed)
	if s.Fault != nil && s.Fault.Net != nil {
		// Chaos rides the resolved fabric config; an otherwise-default
		// network must materialize Default1GbE here, because a non-zero
		// Config is passed through as-is by cluster.Run.
		if netCfg.IsZero() {
			netCfg = netsim.Default1GbE()
		}
		c := *s.Fault.Net
		if c.Seed == 0 {
			c.Seed = 400 + s.Seed
		}
		netCfg.Chaos = &c
	}
	// Surface netsim.New's construction panics as errors, so an invalid
	// spec fails at validation, before any cluster is built.
	if err := netCfg.Validate(g.N()); err != nil {
		return zero, err
	}
	if c := netCfg.Chaos; c != nil {
		if err := validateNetFault(c, cfg, comp); err != nil {
			return zero, err
		}
	}

	opts := cluster.Options{
		Core:         cfg,
		Compute:      hetero.Compute{Base: base, Slow: slow},
		Net:          netCfg,
		PayloadBytes: payload,
		Deadline:     time.Duration(s.Deadline),
		EvalEvery:    evalEvery,
		Seed:         200 + s.Seed,
	}
	if opts.Deadline == 0 && opts.Core.MaxIter == 0 {
		return zero, fmt.Errorf("scenario: need deadline or max_iter to terminate")
	}
	if cfg.Mode == core.ModePS {
		// The server gets a dedicated machine after the leaves' — every
		// gradient and parameter crosses its NIC, the hotspot Fig. 13
		// measures — and the eval replica is a leaf, which holds the
		// server's parameters after every round.
		m := s.Topology.Machines
		if m == 0 {
			m = 4
		}
		leaves := g.N() - 1
		for i := 1; i <= leaves; i++ {
			g.Machine[i] = (i - 1) * m / leaves
		}
		g.Machine[0] = m
		opts.EvalWorker = 1
	}
	if buildTrainer {
		opts.Trainer = w.NewTrainer()
	}
	return opts, nil
}

// ResolvedTargetLoss returns the time-to-target eval-loss level for
// the spec (its own TargetLoss, or the workload default).
func (s Spec) ResolvedTargetLoss() float64 {
	if s.TargetLoss != 0 {
		return s.TargetLoss
	}
	if w, err := WorkloadByName(s.Workload); err == nil {
		return w.TargetLoss
	}
	return 0
}

// Run resolves and executes the scenario on the deterministic
// simulator.
func (s Spec) Run() (*cluster.Result, error) {
	opts, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	res, err := cluster.Run(opts)
	if err != nil {
		return nil, err
	}
	if res.Deadlock != nil {
		return nil, fmt.Errorf("scenario %q deadlocked: %w", s.Name, res.Deadlock)
	}
	return res, nil
}
