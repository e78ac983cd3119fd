package transport

// chaos.go — the live plane's seeded fault injector. It realizes a
// chaos.Config in each peer's writer, between frame encoding and the
// socket write: every frame of a batch meets the injector on its own
// before the batch is assembled, and can be dropped, duplicated, delayed, or
// bit-flipped before it reaches the wire; partition windows sever the
// data plane between a pair of workers for an iteration range. The CRC
// trailer (codec.go) turns every injected bit-flip into a detected
// corrupt frame at the receiver, which tears the connection down and
// recovers via redial + the dense warm-start delta frame — never by
// folding garbage into model parameters.
//
// Handshake and goodbye frames are structurally exempt: they are
// written directly by the handshake and by the writer's exit and never
// pass through Node.flush, so dialing stays convergent and an orderly
// shutdown remains recognizable. Heartbeats are subject to the
// probabilistic faults (losing one occasionally is exactly what the
// failure detector must absorb) but exempt from partition windows,
// which model data loss, not process death.
//
// Unlike the simulator's per-link RNG (internal/netsim), live chaos is
// seeded but not reproducible run-to-run: goroutine scheduling decides
// which frame meets which draw. Tests against live chaos therefore
// assert structure (convergence, counters) rather than exact traces —
// the determinism split documented in DESIGN.md §7.

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hop/internal/chaos"
	"hop/internal/seeded"
)

// maxDelay caps the pre-write delay a reordered frame waits.
const maxDelay = 20 * time.Millisecond

// chaosState is the per-node injector: one seeded RNG shared across
// connections, guarded by mu. It counts the faults it injects in its
// node's Stats (the Chaos* counters).
type chaosState struct {
	cfg chaos.Config
	st  *Stats

	mu  sync.Mutex
	rng *rand.Rand
}

func newChaosState(cfg chaos.Config, st *Stats) *chaosState {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	cfg.Partitions = append([]chaos.Partition(nil), cfg.Partitions...)
	return &chaosState{cfg: cfg, st: st, rng: seeded.New(seed)}
}

// filter passes one batch — the control frames in ctl and, with update
// set, the update frame hdr+chunk+crc — through the injector frame by
// frame, appending what survives to iov in order. It returns iov and
// the number of frames in it.
func (c *chaosState) filter(self, peer int, iov [][]byte, ctl []byte, update bool, hdr, chunk, crc []byte) ([][]byte, int) {
	frames := 0
	for off := 0; off < len(ctl); off += ctlFrameLen {
		iov, frames = c.inject(self, peer, iov, frames, ctl[off:off+ctlFrameLen])
	}
	if update {
		iov, frames = c.inject(self, peer, iov, frames, hdr, chunk, crc)
	}
	return iov, frames
}

// inject applies the configured faults to one encoded frame, given as
// consecutive parts of which the first starts with the header: the
// frame is appended to iov zero times (dropped, partitioned), once
// (possibly after a sleep, possibly as a bit-flipped copy) or twice
// (duplicated).
func (c *chaosState) inject(self, peer int, iov [][]byte, frames int, parts ...[]byte) ([][]byte, int) {
	head := parts[0]
	size := 0
	for _, part := range parts {
		size += len(part)
	}
	kind := frameKind(head[4])
	if kind != frameHeartbeat && c.cfg.Severs(self, peer, int(int32(binary.LittleEndian.Uint32(head[16:20])))) {
		atomic.AddInt64(&c.st.ChaosPartitioned, 1)
		return iov, frames
	}
	// Chunks of multi-chunk updates are never duplicated: a duplicate
	// chunk violates the reassembly contract, modeling a sender bug
	// rather than a network fault.
	dupable := !(kind == frameUpdate && binary.LittleEndian.Uint16(head[8:10]) > 1)
	c.mu.Lock()
	drop := c.rng.Float64() < c.cfg.Drop
	dup := dupable && c.rng.Float64() < c.cfg.Duplicate
	corrupt := c.rng.Float64() < c.cfg.Corrupt
	var delay time.Duration
	if c.rng.Float64() < c.cfg.Reorder {
		// On a TCP stream a frame cannot overtake its predecessors: the
		// live reorder holds the frame — and with it the connection, the
		// peer's one writer sleeping — so the node's other connections
		// land first.
		delay = time.Duration(c.rng.Float64() * float64(maxDelay))
	}
	bit := 0
	switch {
	case drop:
		atomic.AddInt64(&c.st.ChaosDropped, 1)
	case corrupt:
		atomic.AddInt64(&c.st.ChaosCorrupted, 1)
		bit = c.rng.Intn(size * 8)
	case dup:
		atomic.AddInt64(&c.st.ChaosDuplicated, 1)
	}
	if !drop && delay > 0 {
		atomic.AddInt64(&c.st.ChaosDelayed, 1)
	}
	c.mu.Unlock()

	if drop {
		// The frame vanishes "on the wire": the sender sees success,
		// the receiver sees nothing. (The scenario layer refuses drop
		// faults under configurations that cannot absorb loss —
		// stateful TopK streams, NOTIFY-ACK, token queues.)
		return iov, frames
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if corrupt {
		mut := make([]byte, 0, size)
		for _, part := range parts {
			mut = append(mut, part...)
		}
		mut[bit/8] ^= 1 << (bit % 8)
		return append(iov, mut), frames + 1
	}
	copies := 1
	if dup {
		copies = 2
	}
	for ; copies > 0; copies-- {
		iov = append(iov, parts...)
		frames++
	}
	return iov, frames
}
