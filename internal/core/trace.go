package core

// Decision tracing: an optional, runtime-agnostic record of every
// protocol-level decision one worker makes — iteration advances, §5
// jumps, and bounded-staleness exclusions. Because the Protocol makes
// these decisions exclusively through queue state and the Runtime
// interface, a spec whose decisions are forced (full-participation
// reduces, or a straggler slow enough that its neighbors always reach
// the token bound first) produces the *same* trace on the simulator
// and on a real TCP cluster — the differential-test contract of
// DESIGN.md §5.

import (
	"fmt"
	"strings"
	"sync"
)

// TraceKind discriminates decision-trace events.
type TraceKind uint8

// Decision kinds.
const (
	// TraceAdvance records the worker entering an iteration.
	TraceAdvance TraceKind = iota
	// TraceJump records a §5 skip from iteration From to Iter.
	TraceJump
	// TraceStaleSkip records a bounded-staleness Reduce (or §5
	// pre-jump refresh) at iteration Iter excluding sender From (no
	// fresh-enough update arrived this iteration).
	TraceStaleSkip
	// TraceCrash records this worker halting at iteration Iter under a
	// scheduled fault (Config.Faults).
	TraceCrash
	// TraceDeath records peer From being removed from the iteration
	// graph while this worker was at iteration Iter (DESIGN.md §6).
	TraceDeath
	// TraceJoin records peer From being re-admitted to the iteration
	// graph at iteration Iter.
	TraceJoin
	// TraceRejoin records this worker rejoining the cluster at
	// iteration Iter after a restart (Config.Rejoin).
	TraceRejoin
	// TraceGroup records the Prague group scheduled for this worker at
	// iteration Iter (Members holds the full sorted group, this worker
	// included) — the group-formation event of DESIGN.md §8.
	TraceGroup
	// TraceGroupSkip records a Prague reduce at iteration Iter
	// proceeding without scheduled group member From (quorum reached
	// first, or the member is dead).
	TraceGroupSkip
)

func (k TraceKind) String() string {
	switch k {
	case TraceAdvance:
		return "advance"
	case TraceJump:
		return "jump"
	case TraceStaleSkip:
		return "stale-skip"
	case TraceCrash:
		return "crash"
	case TraceDeath:
		return "death"
	case TraceJoin:
		return "join"
	case TraceRejoin:
		return "rejoin"
	case TraceGroup:
		return "group"
	case TraceGroupSkip:
		return "group-skip"
	}
	return fmt.Sprintf("trace(%d)", uint8(k))
}

// TraceEvent is one protocol decision.
type TraceEvent struct {
	Kind TraceKind
	// Iter is the iteration entered (advance, jump) or the iteration
	// whose Reduce excluded a sender (stale-skip).
	Iter int
	// From is the jump's origin iteration, or the excluded sender's
	// worker id; 0 otherwise.
	From int
	// Members is the scheduled Prague group (TraceGroup only), sorted
	// ascending; nil otherwise.
	Members []int
}

func (e TraceEvent) String() string {
	switch e.Kind {
	case TraceAdvance:
		return fmt.Sprintf("+%d", e.Iter)
	case TraceJump:
		return fmt.Sprintf("J%d>%d", e.From, e.Iter)
	case TraceStaleSkip:
		return fmt.Sprintf("S%d@%d", e.From, e.Iter)
	case TraceCrash:
		return fmt.Sprintf("X@%d", e.Iter)
	case TraceDeath:
		return fmt.Sprintf("D%d@%d", e.From, e.Iter)
	case TraceJoin:
		return fmt.Sprintf("R%d@%d", e.From, e.Iter)
	case TraceRejoin:
		return fmt.Sprintf("B@%d", e.Iter)
	case TraceGroup:
		ms := make([]string, len(e.Members))
		for i, m := range e.Members {
			ms[i] = fmt.Sprintf("%d", m)
		}
		return fmt.Sprintf("G%s@%d", strings.Join(ms, "."), e.Iter)
	case TraceGroupSkip:
		return fmt.Sprintf("P%d@%d", e.From, e.Iter)
	}
	return fmt.Sprintf("?%d", e.Iter)
}

// Trace accumulates one worker's decision events in program order. It
// has its own lock (not the cluster Monitor) so it can be read safely
// after a run from any goroutine; a nil *Trace is a valid no-op
// receiver, so tracing costs nothing when disabled.
type Trace struct {
	mu     sync.Mutex
	events []TraceEvent
}

// NewTrace returns an empty decision trace.
func NewTrace() *Trace { return &Trace{} }

// note is the one place a decision leaves the protocol: it tells the
// runtime (Runtime.Observe) and records the event in the trace.
func (p *Protocol) note(e TraceEvent) {
	p.rt.Observe(e)
	p.trace.record(e)
}

// record appends e with its own copy of a group's Members: the slice
// is the protocol's (Runtime.Observe may read it only during the call).
func (t *Trace) record(e TraceEvent) {
	if t == nil {
		return
	}
	if e.Members != nil {
		e.Members = append([]int(nil), e.Members...)
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded decisions.
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// Len returns the number of recorded decisions.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// String renders the trace canonically ("+0 +1 J1>4 +4 ..."), the form
// differential tests compare across runtimes.
func (t *Trace) String() string {
	evs := t.Events()
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// Memberships returns only the membership events — crashes, peer
// deaths, peer joins, and rejoins — in program order. These are the
// events the sim↔live differential contract pins for fault scenarios
// (DESIGN.md §6).
func (t *Trace) Memberships() []TraceEvent {
	var out []TraceEvent
	for _, e := range t.Events() {
		switch e.Kind {
		case TraceCrash, TraceDeath, TraceJoin, TraceRejoin:
			out = append(out, e)
		}
	}
	return out
}

// MembershipString renders Memberships canonically ("X@10", "D3@10
// R3@14 ...").
func (t *Trace) MembershipString() string {
	evs := t.Memberships()
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}
