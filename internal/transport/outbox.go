package transport

// outbox.go — the send half of a connection (DESIGN.md §9.1): the
// per-peer outbox every sender appends to and the one writer goroutine
// that owns the socket, plus the shared-encode entries updates travel
// in (§9.2).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hop/internal/compress"
	"hop/internal/tensor"
)

const (
	// ctlFrameLen is the encoded size of a payload-less frame — every
	// token, ACK, heartbeat and goodbye.
	ctlFrameLen = headerLen + crcLen

	// outboxFrames bounds the control frames an outbox holds between
	// two flushes. A sender that finds it full waits for the writer,
	// exactly as it would have waited in a blocked socket write.
	outboxFrames = 64

	// closeDrainTimeout bounds how long a stopped peer's writer may
	// spend draining its outbox and saying goodbye into a wedged socket.
	closeDrainTimeout = 200 * time.Millisecond
)

// errPeerClosed is what a send finds once its connection has been
// stopped (Node.Close, or a Dial that replaced it).
var errPeerClosed = errors.New("connection closed")

// peer is one dialed connection: the outbox and the state of the
// writer goroutine (Node.writeLoop).
type peer struct {
	conn net.Conn
	comp compress.Compressor // this connection's encoder
	// lastWrite is the UnixNano timestamp of the last successful socket
	// write; the heartbeat loop reads it to find idle connections.
	lastWrite atomic.Int64
	done      chan struct{} // closed once the writer has closed conn and exited

	// The outbox, guarded by mu. ctl holds whole encoded control frames
	// in send order and never outgrows its initial capacity; job is the
	// one update the barrier admits (job.e nil: none staged). busy is
	// set from the moment a sender claims the update slot until the
	// writer has resolved that update (written and committed, or
	// failed), so the stream codec's stage → write → commit steps of
	// consecutive updates never overlap. work wakes the writer; room
	// wakes whoever waits for control space, for the update slot, or
	// (Flush) for the writer to go idle.
	mu         sync.Mutex
	work, room sync.Cond
	ctl        []byte
	job        updateJob
	busy       bool
	writing    bool // the writer holds a batch it has not finished with
	closed     bool // stop was called: no new frames, the writer drains and exits
	goodbye    bool // the writer's last frame is a goodbye (Node.Close, not a replacing Dial)

	// Owned by the writer.
	spare   []byte // the other half of ctl's double buffer
	seq     uint32 // per-peer update sequence, keys chunk reassembly
	closing bool   // closed, as of the writer's last look at the outbox
	hdr     [headerLen]byte
	crc     [crcLen]byte
	iov     [][]byte
	bufs    net.Buffers

	// hist fingerprints this peer's update-stream state: seeded from
	// the connection's codec kind, advanced on every committed stream
	// frame by the frame's iteration tag. Two peers of one node with
	// equal hist have byte-identical encoder replicas (same codec spec,
	// same committed frame sequence from the same snapshots, and the
	// codec is deterministic), so they can share one encoded payload.
	// Owned by whoever holds the update slot: the sender that claimed
	// it until the job is staged, the writer until it is resolved.
	hist uint64
}

// newPeer wraps a freshly handshaken connection, stamping lastWrite so
// the heartbeat loop measures idleness from establishment, not from
// the epoch.
func newPeer(conn net.Conn, comp compress.Compressor) *peer {
	p := &peer{
		conn: conn, comp: perStream(comp), done: make(chan struct{}),
		ctl:   make([]byte, 0, outboxFrames*ctlFrameLen),
		spare: make([]byte, 0, outboxFrames*ctlFrameLen),
		iov:   make([][]byte, 0, 4),
	}
	p.work.L, p.room.L = &p.mu, &p.mu
	p.hist = histSeed(p.comp.Kind())
	p.lastWrite.Store(time.Now().UnixNano())
	return p
}

// updateJob is one staged update send; the payload (or, for a stream
// codec's leader, the snapshot still to encode) travels in e.
type updateJob struct {
	e      *encShared
	leader bool // the writer encodes e before sending (stream codecs)
}

// encShared is one encoded update payload shared across every peer
// whose stream state is bit-identical at stage time: same codec
// (hist seed), same committed frame history (hist), same source
// update (iter and parameter vector). The first peer staged — the
// leader — produces the payload: a stateless codec's at stage time, on
// the sender's goroutine, where the encode doubles as the snapshot of
// the caller's vector; a stream codec's on the leader's writer, from a
// snapshot, because its selection pass must stay off the protocol
// goroutine. Riders adopt the payload byte for byte, which is exactly
// what their encoder would have produced (codec determinism plus
// induction over the shared history). In a ring this halves encode
// CPU: one worker encodes once and sends to two neighbors.
type encShared struct {
	iter int
	hist uint64
	kind compress.Kind // the leader's codec: what payload is encoded in
	// src and n identify the staged vector by its backing array, so a
	// rider is matched without reading it (Node.Send's contract).
	src     *float64
	n       int
	params  []float64 // stream codecs only: the snapshot the leader encodes
	payload []byte
	ready   latch // fired once payload is valid
	// refs counts the stage hand-offs plus Node.encCur's matchability
	// reference; the entry returns to the pool at zero.
	refs atomic.Int32
}

var encSharedPool = sync.Pool{New: func() any {
	e := new(encShared)
	e.ready.cond.L = &e.ready.mu
	return e
}}

// latch is a one-shot event that can be armed again, so it lives in
// the pooled entry where a channel would have to be made per update.
// Arming is the stager's alone, before the entry is visible to anyone
// else; whoever waits holds a reference to the entry, so no waiter is
// left when it returns to the pool.
type latch struct {
	mu    sync.Mutex
	cond  sync.Cond
	fired bool
}

// arm resets the latch: already fired (encodedAtStage, a stateless
// codec's entry) or to be fired by the leader's writer.
func (l *latch) arm(encodedAtStage bool) {
	l.mu.Lock()
	l.fired = encodedAtStage
	l.mu.Unlock()
}

func (l *latch) fire() {
	l.mu.Lock()
	l.fired = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *latch) hasFired() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fired
}

func (l *latch) wait() {
	l.mu.Lock()
	for !l.fired {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

func releaseEncShared(e *encShared) {
	if e.refs.Add(-1) == 0 {
		e.src = nil
		encSharedPool.Put(e)
	}
}

// carries reports whether the entry was staged from params: the same
// backing array and length, or — for a stream codec's snapshot — the
// same bits (Float64bits, so NaNs only match themselves and -0 ≠ +0:
// the encoder is a function of the bits).
func (e *encShared) carries(params []float64) bool {
	if len(params) != e.n {
		return false
	}
	if e.n == 0 || &params[0] == e.src {
		return true
	}
	if len(e.params) != e.n {
		return false
	}
	for i, v := range e.params {
		if math.Float64bits(v) != math.Float64bits(params[i]) {
			return false
		}
	}
	return true
}

// histSeed is the FNV-1a offset basis mixed with the connection's
// codec kind; histNext is one FNV-1a-style step folding a committed frame's
// iteration tag in.
func histSeed(k compress.Kind) uint64 { return 0xcbf29ce484222325 ^ uint64(k) }

func histNext(h uint64, iter int) uint64 { return (h ^ uint64(uint32(iter))) * 1099511628211 }

// enqueue appends one control frame to the outbox and wakes the
// writer. With wait set, a full outbox blocks until the writer has
// drained it; without, the frame is dropped instead (the heartbeat
// loop: a full outbox needs no keep-alive).
func (p *peer) enqueue(h frameHeader, wait bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && len(p.ctl)+ctlFrameLen > cap(p.ctl) {
		if !wait {
			return nil
		}
		p.room.Wait()
	}
	if p.closed {
		return errPeerClosed
	}
	p.ctl = appendFrame(p.ctl, h, nil)
	p.work.Signal()
	return nil
}

// sendUpdate claims the peer's update slot — waiting at the barrier
// while the previous update is unresolved, so the stream encoder's
// staged/committed state and hist are settled before the next frame is
// derived from them — stages the update and hands it to the writer.
func (n *Node) sendUpdate(p *peer, m Message) error {
	p.mu.Lock()
	if p.busy && !p.closed {
		atomic.AddInt64(&n.st.PipelineStalls, 1)
	}
	for p.busy && !p.closed {
		p.room.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return errPeerClosed
	}
	p.busy = true
	p.mu.Unlock()
	// Staged outside the outbox lock: tokens and ACKs for this peer
	// keep flowing while the vector is encoded. The writer does not
	// exit while the slot is claimed, so the job is always resolved.
	job := n.stageUpdate(p, m)
	p.mu.Lock()
	p.job = job
	p.mu.Unlock()
	p.work.Signal()
	return nil
}

// stageUpdate returns the job for m: a ride on the newest shared-encode
// entry when it is for the same update and the peer's stream
// fingerprint equals the leader's at stage time — the condition under
// which the leader's bytes are provably this peer's bytes — or a new
// entry this peer leads. The caller holds p's update slot (hist
// quiescent).
func (n *Node) stageUpdate(p *peer, m Message) updateJob {
	n.encMu.Lock()
	defer n.encMu.Unlock()
	if e := n.encCur; e != nil && e.iter == m.Iter && e.hist == p.hist && e.carries(m.Params) {
		e.refs.Add(1)
		return updateJob{e: e}
	}
	e := encSharedPool.Get().(*encShared)
	e.iter, e.hist, e.kind, e.n, e.src = m.Iter, p.hist, p.comp.Kind(), len(m.Params), nil
	if len(m.Params) > 0 {
		e.src = &m.Params[0]
	}
	_, stream := p.comp.(compress.StreamCommitter)
	if stream {
		e.params = append(e.params[:0], m.Params...)
	} else {
		// One pass: the encode is the snapshot.
		e.params = e.params[:0]
		e.payload = p.comp.Compress(e.payload[:0], m.Params)
	}
	e.ready.arm(!stream)
	e.refs.Store(2) // this stage + encCur's matchability reference
	if old := n.encCur; old != nil {
		releaseEncShared(old)
	}
	n.encCur = e
	return updateJob{e: e, leader: stream}
}

// Resend queues the update this node staged last — for whichever peer —
// once more, for peer id. It is for a caller whose protocol absorbs
// lost and repeated updates, after a Dial has replaced a torn
// connection: a dead connection is only reported by a later write, so
// the updates the old one accepted in its last moments may never have
// arrived, and a sender that is by then blocked on this very peer would
// never send another. With nothing staged yet it does nothing.
func (n *Node) Resend(id int) error {
	n.encMu.Lock()
	e := n.encCur
	if e != nil {
		e.refs.Add(1) // pins e.params and e.payload
	}
	n.encMu.Unlock()
	if e == nil {
		return nil
	}
	defer releaseEncShared(e)
	params := e.params
	if len(params) != e.n { // a stateless codec's entry: the payload is the only copy
		v, err := compress.DecodeInto(tensor.GetVec(0), e.kind, e.payload)
		if err != nil {
			return err
		}
		defer tensor.PutVec(v)
		params = v
	}
	return n.Send(id, Message{Kind: KindUpdate, Iter: e.iter, Params: params})
}

// writeLoop is the peer's writer, the only goroutine that touches the
// socket after the handshake. Each time it wakes it takes everything
// the outbox holds — the control frames queued so far and the staged
// update, if any — and writes it with one vectored write; a send that
// finds the writer idle wakes it at once, so nothing waits for company
// (flush-when-idle, no timer). A failed write goes to OnSendError and
// drops what the batch carried; the update in it stays uncommitted.
// After stop the loop drains what is left, says goodbye if asked to,
// and closes the connection.
func (n *Node) writeLoop(p *peer, id int) {
	defer n.wg.Done()
	defer close(p.done)
	defer p.conn.Close()
	for {
		ctl, job := p.take(true)
		if len(ctl) == 0 && job.e == nil {
			break // stopped and drained
		}
		var err error
		if job.e == nil {
			err = n.flush(p, id, ctl, nil, false)
		} else {
			err = n.writeUpdate(p, id, job, ctl)
			p.mu.Lock()
			p.busy = false
			p.mu.Unlock()
		}
		// A stopped connection drains best-effort: its far end may
		// already be gone, which is not news.
		if cb := n.cfg.OnSendError; err != nil && cb != nil && !p.closing {
			cb(id, err)
		}
	}
	if p.goodbye {
		// Best effort, so receivers can tell this orderly close from a
		// crash. Written here, after the outbox, and never through the
		// chaos injector.
		p.conn.SetWriteDeadline(time.Now().Add(closeDrainTimeout))
		p.conn.Write(appendFrame(p.spare[:0], frameHeader{kind: frameGoodbye, from: uint32(n.id)}, nil))
	}
}

// take empties the outbox for the writer: the control frames queued so
// far (valid until the next take) and, with wait set, the staged
// update. With wait it first blocks until there is something to take;
// after stop it returns empty-handed once nothing is left and no
// sender holds the update slot. Without wait it is what the writer
// calls before each further chunk of an update. Either way senders get
// the other, empty half of the control double buffer: the writer is
// done with the half it got last time.
func (p *peer) take(wait bool) (ctl []byte, job updateJob) {
	p.mu.Lock()
	if wait {
		p.writing = false
		for len(p.ctl) == 0 && p.job.e == nil && !(p.closed && !p.busy) {
			p.room.Broadcast() // idle: what Flush waits for
			p.work.Wait()
		}
		job, p.job = p.job, updateJob{}
		p.writing = len(p.ctl) > 0 || job.e != nil
	}
	p.closing = p.closed
	ctl = p.ctl
	p.ctl, p.spare = p.spare[:0], ctl
	p.mu.Unlock()
	p.room.Broadcast()
	return ctl, job
}

// idle reports whether everything queued has left the outbox and the
// writer. Called under mu.
func (p *peer) idle() bool {
	return len(p.ctl) == 0 && p.job.e == nil && !p.busy && !p.writing
}

// stop closes the outbox: later sends fail, the writer drains what is
// queued, writes the goodbye if asked, closes the connection and
// exits. The write deadline bounds the drain when the socket is wedged.
func (p *peer) stop(goodbye bool) {
	p.mu.Lock()
	p.closed, p.goodbye = true, goodbye
	p.mu.Unlock()
	p.work.Signal()
	p.room.Broadcast()
	p.conn.SetWriteDeadline(time.Now().Add(closeDrainTimeout))
}

// writeUpdate realizes one staged update: a stream codec's leader
// encodes the entry's snapshot and publishes the payload; a rider
// adopts the published payload into its own stream encoder verbatim
// (compress.SharedStager). The payload then leaves as chunked frames,
// the first one in the same write as ctl and every later one behind
// whatever control frames were queued meanwhile. Stream-codec state —
// and the stream fingerprint — advance only after every chunk is on
// the wire.
func (n *Node) writeUpdate(p *peer, id int, job updateJob, ctl []byte) error {
	e := job.e
	defer releaseEncShared(e)
	if job.leader {
		// Published before any socket write of this update, so a wedged
		// connection here does not hold the riders' payload back.
		e.payload = p.comp.Compress(e.payload[:0], e.params)
		e.ready.fire()
	} else {
		if !e.ready.hasFired() {
			// The leader is still encoding: this peer's control frames
			// do not wait for it.
			if err := n.flush(p, id, ctl, nil, false); err != nil {
				return err
			}
			e.ready.wait()
			ctl, _ = p.take(false)
		}
		if s, ok := p.comp.(compress.SharedStager); ok {
			s.StageShared(e.payload, e.n)
		}
	}
	payload := e.payload
	chunks := (len(payload) + maxChunk - 1) / maxChunk
	if chunks < 1 {
		chunks = 1 // empty payload still needs one frame to carry the tags
	}
	if chunks > 1<<16-1 {
		if err := n.flush(p, id, ctl, nil, false); err != nil {
			return err
		}
		return fmt.Errorf("transport: send to %d: update of %d payload bytes needs %d chunks (limit %d)", id, len(payload), chunks, 1<<16-1)
	}
	p.seq++
	for c := 0; c < chunks; c++ {
		if c > 0 {
			ctl, _ = p.take(false)
		}
		lo := c * maxChunk
		hi := lo + maxChunk
		if hi > len(payload) {
			hi = len(payload)
		}
		putHeader(&p.hdr, frameHeader{
			kind: frameUpdate, codec: p.comp.Kind(),
			chunkIndex: uint16(c), chunkCount: uint16(chunks),
			from: uint32(n.id), iter: int32(e.iter), seq: p.seq,
			payloadLen: uint32(hi - lo),
		})
		if err := n.flush(p, id, ctl, payload[lo:hi], true); err != nil {
			return err
		}
	}
	// Only now has the receiver (eventually) seen the frame: advance
	// stream-codec state. An errored send above stays uncommitted — and
	// leaves hist unadvanced — so the encoder re-sends the same mass
	// next time instead of desyncing from a receiver that saw nothing.
	// Stateless codecs keep their seed fingerprint: their payloads are
	// pure functions of the params, so history never gates sharing.
	if c, ok := p.comp.(compress.StreamCommitter); ok {
		c.Commit()
		p.hist = histNext(p.hist, e.iter)
	}
	atomic.AddInt64(&n.st.UpdatesSent, 1)
	atomic.AddInt64(&n.st.RawUpdateBytesSent, int64(8*e.n))
	atomic.AddInt64(&n.st.WireUpdateBytesSent, int64(len(payload)))
	return nil
}

// flush performs one socket write: the control frames in ctl and, with
// update set, the update frame whose header the caller encoded into
// p.hdr (chunk may be empty: an empty update is a header-only frame
// carrying its tags) — header, payload chunk and CRC trailer as separate
// vectors, so the payload goes from the shared entry to the kernel
// without being copied into a frame first. Under Config.Liveness
// writeTimeout arms once per flush; lastWrite is stamped once. With chaos configured
// each frame meets the injector first, and what it lets through is
// still one write. Handshake and goodbye frames never pass through
// here, which is what keeps them structurally exempt from chaos.
func (n *Node) flush(p *peer, id int, ctl, chunk []byte, update bool) error {
	if update {
		binary.LittleEndian.PutUint32(p.crc[:], frameCRC(p.hdr[:], chunk))
	}
	iov, frames := p.iov[:0], len(ctl)/ctlFrameLen
	switch {
	case n.chaos != nil:
		iov, frames = n.chaos.filter(n.id, id, iov, ctl, update, p.hdr[:], chunk, p.crc[:])
	case update:
		frames++
		iov = append(iov, ctl, p.hdr[:], chunk, p.crc[:])
	default:
		iov = append(iov, ctl)
	}
	var bytes, heartbeats int64
	k := 0
	for _, b := range iov { // an empty ctl or chunk is not worth a vector
		if len(b) > 0 {
			iov[k] = b
			k++
			bytes += int64(len(b))
		}
	}
	p.iov = iov[:k]
	if n.cfg.Liveness {
		for off := 4; off < len(ctl); off += ctlFrameLen {
			if frameKind(ctl[off]) == frameHeartbeat {
				heartbeats++
			}
		}
	}
	if bytes > 0 { // chaos may have dropped the whole batch "on the wire"
		if n.cfg.Liveness && !p.closing {
			p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		p.bufs = p.iov
		_, err := p.bufs.WriteTo(p.conn)
		atomic.AddInt64(&n.st.Writes, 1)
		if err != nil {
			atomic.AddInt64(&n.st.HeartbeatsMissed, heartbeats)
			return fmt.Errorf("transport: send to %d: %w", id, err)
		}
		p.lastWrite.Store(time.Now().UnixNano())
	}
	atomic.AddInt64(&n.st.FramesSent, int64(frames))
	atomic.AddInt64(&n.st.BytesSent, bytes)
	atomic.AddInt64(&n.st.HeartbeatsSent, heartbeats)
	return nil
}
