package transport

// chaos.go — the live plane's fault injector. It realizes a
// chaos.Config in each peer's writer, between frame encoding and the
// socket write: every frame of a batch meets chaos.Config.Fate on its
// own, keyed by its header and its connection's generation, so it meets
// the fault the simulator (internal/netsim) gives the same message. A
// dropped attempt costs a retransmission timeout of pre-write delay,
// the path a reorder's delay takes, and the next attempt's fate. A
// duplicate is written twice; a bit-flip becomes a corrupt frame at the
// receiver's CRC check (codec.go), which tears the connection, and the
// frame resent on the redialed one meets a fresh fate. Partition
// windows sever a pair of workers for an iteration range.
//
// Handshake and goodbye frames never pass through Node.flush, so they
// are exempt. Heartbeats carry no iteration and are keyed by their
// connection's heartbeat count; they meet the probabilistic faults
// (losing one is what the failure detector must absorb) but not
// partitions, which model data loss, not process death.

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"hop/internal/chaos"
)

// maxDelay caps the pre-write delay a reordered frame waits; a
// retransmission waits twice that.
const maxDelay = 20 * time.Millisecond

// filter passes one batch for peer id on connection p — the control
// frames in ctl and, with update set, the update frame p.hdr+chunk+p.crc
// — through the injector frame by frame, appending what survives to iov
// in order. It returns iov and the number of frames in it.
func (n *Node) filter(p *peer, id int, iov [][]byte, ctl []byte, update bool, chunk []byte) ([][]byte, int) {
	frames := 0
	for off := 0; off < len(ctl); off += ctlFrameLen {
		iov, frames = n.inject(p, id, iov, frames, ctl[off:off+ctlFrameLen])
	}
	if update {
		iov, frames = n.inject(p, id, iov, frames, p.hdr[:], chunk, p.crc[:])
	}
	return iov, frames
}

// inject applies one encoded frame's fate, the frame given as
// consecutive parts of which the first starts with the header: it is
// appended to iov zero times (partitioned), once (possibly after a
// sleep, possibly as a bit-flipped copy) or twice (duplicated).
func (n *Node) inject(p *peer, id int, iov [][]byte, frames int, parts ...[]byte) ([][]byte, int) {
	head, c := parts[0], n.cfg.Chaos
	size := 0
	for _, part := range parts {
		size += len(part)
	}
	kind := frameKind(head[4])
	m := chaos.Msg{
		Src: n.id, Dst: id, Kind: chaos.Kind(kind),
		Iter:  int(int32(binary.LittleEndian.Uint32(head[16:20]))),
		Chunk: int(binary.LittleEndian.Uint16(head[6:8])),
		Gen:   p.gen,
	}
	if kind == frameHeartbeat {
		m.Iter = p.beats
		p.beats++
	} else if c.Severs(n.id, id, m.Iter) {
		atomic.AddInt64(&n.st.ChaosPartitioned, 1)
		return iov, frames
	}
	// On a TCP stream a frame cannot overtake its predecessors: a delay
	// holds the frame — and with it the connection, the peer's one
	// writer sleeping — so the node's other connections land first.
	var delay time.Duration
	f := c.Fate(m, 0)
	for a := 1; f.Drop; a++ {
		atomic.AddInt64(&n.st.ChaosDropped, 1)
		delay += 2 * maxDelay
		f = c.Fate(m, a)
	}
	if f.Reorder {
		atomic.AddInt64(&n.st.ChaosDelayed, 1)
		delay += time.Duration(f.Lag * float64(maxDelay))
	}
	// Chunks of multi-chunk updates are never duplicated: a duplicate
	// chunk violates the reassembly contract, modeling a sender bug
	// rather than a network fault.
	dup := f.Duplicate && !(kind == frameUpdate && binary.LittleEndian.Uint16(head[8:10]) > 1)
	switch {
	case f.Corrupt:
		atomic.AddInt64(&n.st.ChaosCorrupted, 1)
	case dup:
		atomic.AddInt64(&n.st.ChaosDuplicated, 1)
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if f.Corrupt {
		mut := make([]byte, 0, size)
		for _, part := range parts {
			mut = append(mut, part...)
		}
		bit := f.Bit % uint64(size*8)
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
