// Package transport provides the wire layer of the live runtime: a
// length-prefixed binary frame format over TCP (or any net.Conn), with
// one outgoing connection per peer and an accept loop feeding a
// handler. The protocol above it (internal/live) only needs ordered,
// reliable, typed messages between named workers.
//
// Each connection starts with a hello/hello-ack handshake that checks
// the wire-format version and names the dialer's update codec; the
// acceptor refuses a codec that is not one of compress's kinds, which
// every build of this version decodes. Every data frame carries its own
// codec byte; None and Float32 frames decode statelessly, while TopK
// frames form a per-connection delta stream with error feedback
// (compress.DeltaEncoder/DeltaDecoder), so sparsification never zeroes
// coordinates of the state the protocol aggregates.
//
// Every dialed peer has one writer goroutine that owns the socket.
// Whatever is bound for the peer — token, ACK, heartbeat, update — is
// put in the peer's outbox, and each time the writer wakes it drains
// all of it into a single vectored write: a token grant followed
// microseconds later by an update leaves as one syscall, and a lone
// token on an idle connection leaves at once (DESIGN.md §9.1). The
// writer only writes: an update is encoded when its send is staged, on
// the sender's goroutine, once for every peer whose stream state
// matches (DESIGN.md §9.2).
//
// Update payloads larger than 64 KiB (maxChunk) are split across frames
// tagged with a per-peer sequence number and reassembled on receipt;
// the writer drains the outbox's control frames again before every
// chunk, so token frames interleave instead of queueing behind a large
// parameter vector (no head-of-line blocking). The full frame layout
// is documented in DESIGN.md §2 and codec.go.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hop/internal/chaos"
	"hop/internal/compress"
	"hop/internal/counters"
	"hop/internal/tensor"
)

// Kind discriminates protocol messages.
type Kind uint8

// Message kinds.
const (
	// KindUpdate carries model parameters tagged (Iter, From) — the
	// update-queue entries of §4.1.
	KindUpdate Kind = iota
	// KindToken is a token grant (§4.2): Iter is the iteration the
	// sender entered, which the receiver's token gate reads. A
	// NOTIFY-ACK worker's ACK of iteration k (§3.3) is a grant of k+1.
	KindToken
	// KindHeartbeat is liveness evidence on an otherwise idle
	// connection (Config.Liveness). It carries no protocol
	// payload: handlers use it to clear peer suspicion, never to
	// advance protocol state.
	KindHeartbeat
)

func (k Kind) String() string {
	switch k {
	case KindUpdate:
		return "update"
	case KindToken:
		return "token"
	case KindHeartbeat:
		return "heartbeat"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is the single wire type: a tagged union discriminated by
// Kind. Field validity per kind —
//
//	Kind           From  Iter  Params
//	KindUpdate      ✓     ✓     ✓
//	KindToken       ✓     ✓     –
//	KindHeartbeat   ✓     –     –
//
// From is always stamped by Send with the sending node's id; fields
// marked – are zero and ignored for that kind.
type Message struct {
	Kind   Kind
	From   int
	Iter   int
	Params []float64
}

// String renders the populated fields only, for test-failure and log
// output.
func (m Message) String() string {
	switch m.Kind {
	case KindUpdate:
		return fmt.Sprintf("update{from:%d iter:%d dim:%d}", m.From, m.Iter, len(m.Params))
	case KindToken:
		return fmt.Sprintf("token{from:%d iter:%d}", m.From, m.Iter)
	case KindHeartbeat:
		return fmt.Sprintf("heartbeat{from:%d}", m.From)
	}
	return fmt.Sprintf("%v{from:%d iter:%d}", m.Kind, m.From, m.Iter)
}

// Handler consumes inbound messages. It is called from per-connection
// reader goroutines and must be safe for concurrent use.
type Handler func(Message)

// Config tunes a node's wire behavior. The zero value is valid: no
// compression, no failure detector.
type Config struct {
	// Compressor encodes outgoing update payloads on every dialed
	// connection, a TopK DeltaEncoder as one stream per connection
	// (DeltaEncoder.NewStream); nil means compress.NewNone(). ListenConfig refuses a Compressor whose Kind
	// is not one of compress's codecs.
	Compressor compress.Compressor
	// OnPeerDown, when non-nil, is invoked once for every inbound
	// connection that ends while this node is not itself closing. peer
	// is the sender the handshake pinned, or -1 if the connection ended
	// before its hello. err is nil for a clean end — an announced
	// goodbye (Node.Close or CloseSends at the peer), or a connection
	// that left before saying anything — and otherwise the diagnosis of
	// why the connection was dropped: handshake rejection, chunk-contract
	// violation, codec decode failure, EOF without goodbye (process
	// death). Every non-nil err is also counted in Stats.ReadErrors.
	// TCP delivers data in order before the FIN and the reader is
	// sequential, so the callback runs strictly after every message the
	// peer sent on this connection has been handled. Called from reader
	// goroutines; must be safe for concurrent use.
	OnPeerDown func(peer int, err error)
	// Liveness turns on the failure detector's wire half (heartbeatLoop,
	// silenceReader, flush): idle outgoing connections carry heartbeats,
	// inbound silence past readDeadline fires OnPeerSilent, a frame body
	// not complete readDeadline after its header drops the connection as
	// corrupt, and every socket write is bounded by writeTimeout.
	Liveness bool
	// OnPeerSilent, when non-nil, is invoked each time an inbound
	// connection pinned to peer completes a full readDeadline window
	// with no traffic (Liveness only). Called from reader goroutines;
	// must be safe for concurrent use.
	OnPeerSilent func(peer int)
	// OnSendError, when non-nil, receives every failed socket write:
	// Send has long returned by the time a frame reaches the wire, so
	// this is the only place a write error surfaces. One call per
	// failed flush, whatever it carried; callers that must not lose
	// frames silently should set it. Called from the per-peer writer
	// goroutines; must be safe for concurrent use.
	OnSendError func(peer int, err error)
	// Chaos, when non-nil, injects seeded faults (drop, duplicate,
	// delay, bit-flip, partition windows) into outgoing frames before
	// they reach the socket. See chaos.go.
	Chaos *chaos.Config
}

// Stats holds a node's wire counters. It is a counter table
// (internal/counters): every field is a counter named by its json tag,
// which Node adds to with atomic.AddInt64 and snapshots with
// counters.Load. RawUpdateBytesSent is what updates would have cost
// uncompressed (8 bytes per coordinate); WireUpdateBytesSent is their
// actual compressed payload cost, so the ratio of the two is the
// realized compression factor.
type Stats struct {
	FramesSent int64 `json:"frames_sent"`
	FramesRecv int64 `json:"frames_recv"`
	BytesSent  int64 `json:"bytes_sent"` // on-the-wire bytes including headers
	BytesRecv  int64 `json:"bytes_recv"`
	// Writes counts socket writes. Every write carries everything the
	// peer's outbox held, so Writes/FramesSent is how well frames
	// coalesce: 1 means each frame paid its own syscall, 0.5 that the
	// typical write carried a token and an update.
	Writes              int64 `json:"writes"`
	UpdatesSent         int64 `json:"updates_sent"`
	UpdatesRecv         int64 `json:"updates_recv"`
	RawUpdateBytesSent  int64 `json:"raw_update_bytes_sent"`
	WireUpdateBytesSent int64 `json:"wire_update_bytes_sent"`
	// ReadErrors counts inbound connections dropped for protocol-level
	// failures (every non-nil error Config.OnPeerDown reports).
	ReadErrors int64 `json:"read_errors"`
	// HeartbeatsSent and HeartbeatsRecv count liveness frames;
	// HeartbeatsMissed counts heartbeat sends that failed (a strong
	// hint the peer's connection is gone).
	HeartbeatsSent   int64 `json:"heartbeats_sent"`
	HeartbeatsRecv   int64 `json:"heartbeats_recv"`
	HeartbeatsMissed int64 `json:"heartbeats_missed"`
	// CorruptFrames counts inbound frames dropped on a CRC32-C
	// mismatch. Zero on a healthy network — live_smoke.sh asserts it.
	CorruptFrames int64 `json:"corrupt_frames"`
	// PipelineStalls counts update sends that found the previous
	// update to the same peer still in flight and had to wait at the
	// one-in-flight barrier. A high value relative to UpdatesSent means
	// the wire, not the compute, is the bottleneck.
	PipelineStalls int64 `json:"pipeline_stalls"`
	// Chaos* count faults injected by this node's Config.Chaos (all zero
	// when chaos is off — live_smoke.sh asserts exactly that in
	// non-chaos runs). ChaosDropped counts dropped attempts, each
	// retransmitted.
	ChaosDropped     int64 `json:"chaos_dropped"`
	ChaosDuplicated  int64 `json:"chaos_duplicated"`
	ChaosDelayed     int64 `json:"chaos_delayed"`
	ChaosCorrupted   int64 `json:"chaos_corrupted"`
	ChaosPartitioned int64 `json:"chaos_partitioned"`
}

// CompressionRatio returns raw/wire update bytes (1 when nothing was
// sent or compression is off and lossless).
func (s Stats) CompressionRatio() float64 {
	if s.WireUpdateBytesSent == 0 {
		return 1
	}
	return float64(s.RawUpdateBytesSent) / float64(s.WireUpdateBytesSent)
}

// Node is one transport endpoint: a listener plus outgoing peer
// connections.
type Node struct {
	// st comes first: the first word of an allocated struct is 64-bit
	// aligned, which atomic.AddInt64 needs on 32-bit platforms.
	st Stats

	id      int
	ln      net.Listener
	handler Handler
	cfg     Config

	mu          sync.Mutex
	peers       map[int]*peer
	inbound     []net.Conn
	closed      bool
	sendsClosed bool          // CloseSends or Close: no new outgoing connections
	done        chan struct{} // closed by Close; stops the heartbeat loop
	wg          sync.WaitGroup

	// encMu guards encCur, the newest shared-encode entry; peers whose
	// stream state matches it ride the leader's payload (see encShared).
	encMu  sync.Mutex
	encCur *encShared
}

// Listen starts a node with the given worker id on addr (use ":0" for
// an ephemeral port) with the default Config.
func Listen(id int, addr string, handler Handler) (*Node, error) {
	return ListenConfig(id, addr, handler, Config{})
}

// ListenConfig starts a node and begins accepting inbound connections,
// feeding every decoded message to handler.
func ListenConfig(id int, addr string, handler Handler, cfg Config) (*Node, error) {
	if cfg.Compressor == nil {
		cfg.Compressor = compress.NewNone()
	} else if k := cfg.Compressor.Kind(); !compress.Supported(k) {
		return nil, fmt.Errorf("transport: compressor kind %v is not a wire codec", k)
	}
	if c := cfg.Chaos; c != nil {
		cc := *c
		cc.Partitions = slices.Clone(c.Partitions)
		cfg.Chaos = &cc
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &Node{
		id: id, ln: ln, handler: handler, cfg: cfg,
		peers: make(map[int]*peer),
		done:  make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	if cfg.Liveness {
		n.wg.Add(1)
		go n.heartbeatLoop()
	}
	return n, nil
}

// ID returns the worker id.
func (n *Node) ID() int { return n.id }

// Addr returns the listener's address (host:port).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Stats returns a snapshot of the wire counters.
func (n *Node) Stats() Stats { return counters.Load(&n.st) }

// Liveness timings (Config.Liveness). A healthy connection is never
// silent longer than about one heartbeatInterval, so readDeadline —
// several intervals — expires only when frames are actually not
// arriving. writeTimeout bounds each socket write (one flush of a
// peer's outbox), so a peer that is alive but wedged (an open
// connection accepting no bytes) surfaces as a prompt send error
// instead of blocking its writer forever.
const (
	heartbeatInterval = 250 * time.Millisecond
	readDeadline      = 1500 * time.Millisecond
	writeTimeout      = 2 * time.Second
)

// heartbeatLoop ticks at half the heartbeat interval and queues a
// heartbeat frame on every outgoing connection that has written
// nothing for at least that long, bounding a healthy connection's
// silent gap at about one interval. It never waits on a peer: a full
// outbox is traffic enough. A heartbeat is often the first write to
// notice a dead or wedged peer; the writer counts it as sent or missed
// and reports the failure through OnSendError like any other.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	const tick = heartbeatInterval / 2
	t := time.NewTicker(tick)
	defer t.Stop()
	var idle []*peer
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-tick).UnixNano()
		idle = idle[:0]
		n.mu.Lock()
		for _, p := range n.peers {
			if p.lastWrite.Load() <= cutoff {
				idle = append(idle, p)
			}
		}
		n.mu.Unlock()
		for _, p := range idle {
			p.enqueue(frameHeader{kind: frameHeartbeat, from: uint32(n.id)}, false)
		}
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound = append(n.inbound, conn)
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	sender, err := n.readConn(conn)
	n.notePeerDown(conn, sender, err)
}

// readConn drives one inbound connection until it ends, returning the
// handshake-pinned sender id (-1 if the connection ended before the
// hello). A nil error is a clean close; any error is a diagnosis of
// why the peer was dropped, surfaced through notePeerDown so the
// failure is observable instead of manifesting as updates silently
// ceasing.
func (n *Node) readConn(conn net.Conn) (int, error) {
	// The rolling-silence detector sits beneath the read buffer, where
	// the socket reads happen; it stays dormant until the handshake has
	// pinned a sender to report.
	var src io.Reader = conn
	var silence *silenceReader
	if n.cfg.Liveness {
		silence = &silenceReader{conn: conn}
		src = silence
	}
	fr := newFrameReader(src)
	fr.silence = silence

	// Handshake: the first frame must be a hello carrying a compatible
	// magic/version (the frame reader rejects the rest) and a codec this
	// build decodes; the ack echoes it.
	h, _, err := fr.next()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return -1, nil // connect-and-leave (port probe): a clean end
		}
		return -1, fmt.Errorf("handshake: %w", err)
	}
	if h.kind != frameHello {
		return -1, fmt.Errorf("handshake: first frame is %d, want hello", h.kind)
	}
	if !compress.Supported(h.codec) {
		return -1, fmt.Errorf("handshake: hello names %v, not a wire codec", h.codec)
	}
	ack := appendFrame(nil, frameHeader{kind: frameHelloAck, codec: h.codec, from: uint32(n.id)}, nil)
	if _, err := conn.Write(ack); err != nil {
		return -1, fmt.Errorf("handshake ack: %w", err)
	}

	var ra reassembler
	// The hello pins this connection's sender id: Send always stamps
	// the dialing node's own id, so a data frame claiming any other id
	// is a protocol violation. Enforcing it also lets the TopK delta
	// decoder be a single replica per connection instead of an
	// attacker-growable map keyed by fabricated sender ids.
	sender := int(h.from)
	// Post-handshake reads run behind the rolling-silence detector: a
	// full readDeadline window with no bytes fires OnPeerSilent and
	// keeps reading, so a transient stall suspects the peer without
	// sacrificing the bytes still in flight behind it. The window is
	// the failure detector's trigger, not its verdict: declaring the
	// peer dead is the caller's policy.
	if silence != nil {
		silence.onSilent = func() { n.notePeerSilent(sender) }
	}
	var delta *compress.DeltaDecoder
	for {
		h, payload, err := fr.next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				// A goodbye-less FIN means the peer process died (an
				// orderly Node.Close announces itself first).
				return sender, fmt.Errorf("peer %d closed without goodbye (process died?)", sender)
			}
			if errors.Is(err, errCorruptFrame) {
				atomic.AddInt64(&n.st.CorruptFrames, 1)
			}
			return sender, fmt.Errorf("read frame: %w", err)
		}
		atomic.AddInt64(&n.st.FramesRecv, 1)
		atomic.AddInt64(&n.st.BytesRecv, int64(headerLen+crcLen+len(payload)))
		if (h.kind <= frameToken || h.kind == frameHeartbeat) && int(h.from) != sender {
			return sender, fmt.Errorf("frame from %d on connection pinned to sender %d", h.from, sender)
		}
		switch h.kind {
		case frameUpdate:
			mh, whole, done, err := ra.add(h, payload)
			if err != nil {
				return sender, err // stream violated the chunking contract
			}
			if !done {
				continue
			}
			// Decode into a recycled buffer, straight from the read
			// buffer for a single-chunk update: the handler's consumer
			// owns the slice exclusively (each frame decodes into its
			// own buffer) and hands it back to the pool once reduced.
			var params []float64
			if mh.codec == compress.TopK {
				if delta == nil {
					delta = new(compress.DeltaDecoder)
				}
				params, err = delta.DecodeInto(tensor.GetVec(0), whole)
			} else {
				params, err = compress.DecodeInto(tensor.GetVec(0), mh.codec, whole)
			}
			if err != nil {
				return sender, fmt.Errorf("update from %d iter %d: %w", mh.from, mh.iter, err)
			}
			atomic.AddInt64(&n.st.UpdatesRecv, 1)
			n.handler(Message{
				Kind: KindUpdate, From: int(mh.from), Iter: int(mh.iter),
				Params: params,
			})
		case frameToken:
			n.handler(Message{Kind: KindToken, From: int(h.from), Iter: int(h.iter)})
		case frameHeartbeat:
			atomic.AddInt64(&n.st.HeartbeatsRecv, 1)
			n.handler(Message{Kind: KindHeartbeat, From: sender})
		case frameGoodbye:
			return sender, nil // orderly shutdown announced; the EOF that follows is clean
		default:
			return sender, fmt.Errorf("frame kind %d after handshake", h.kind)
		}
	}
}

// silenceReader puts a rolling read deadline on a connection, beneath
// its read buffer: once armed (onSilent set), every Read arms the
// deadline readDeadline ahead, a pure timeout (no bytes) fires the
// silence callback and retries in place, and a timeout racing real data
// just returns the data. The connection — and everything later
// delivered on it — survives the stall; only real errors surface.
//
// While frameStart is set (frameReader: a parsed header whose body is
// still to arrive) the deadline is capped at frameStart + readDeadline
// and expiring there is an error, errCorruptFrame: a length field that
// promised bytes the sender never sends would otherwise keep the
// reader waiting for as long as heartbeats trickle in.
type silenceReader struct {
	conn       net.Conn
	onSilent   func()
	frameStart time.Time
}

func (s *silenceReader) Read(p []byte) (int, error) {
	if s.onSilent == nil {
		return s.conn.Read(p)
	}
	for {
		from, framed := time.Now(), !s.frameStart.IsZero()
		if framed {
			from = s.frameStart
		}
		s.conn.SetReadDeadline(from.Add(readDeadline))
		n, err := s.conn.Read(p)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if n > 0 {
					return n, nil
				}
				if framed {
					return 0, fmt.Errorf("transport: frame body overdue %v after its header: %w", readDeadline, errCorruptFrame)
				}
				s.onSilent()
				continue
			}
		}
		return n, err
	}
}

// notePeerSilent reports a completed silence window on a pinned
// inbound connection, unless this node is itself shutting down.
func (n *Node) notePeerSilent(sender int) {
	cb := n.cfg.OnPeerSilent
	if cb == nil {
		return
	}
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	cb(sender)
}

// notePeerDown reports the end of an inbound connection through
// Config.OnPeerDown, counting a diagnosis in Stats.ReadErrors, unless
// this node is itself shutting down (its own Close tears every
// connection).
func (n *Node) notePeerDown(conn net.Conn, sender int, err error) {
	if errors.Is(err, net.ErrClosed) {
		return
	}
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	if err != nil {
		atomic.AddInt64(&n.st.ReadErrors, 1)
		err = fmt.Errorf("transport: dropping inbound connection %v: %w", conn.RemoteAddr(), err)
	}
	if cb := n.cfg.OnPeerDown; cb != nil {
		cb(sender, err)
	}
}

// errProtocol marks handshake failures that retrying cannot fix: the
// remote speaks a different wire format or version.
var errProtocol = errors.New("protocol mismatch")

// errSendsClosed is what a dial finds after CloseSends or Close.
var errSendsClosed = errors.New("transport: node closed for sending")

// connect is Dial's retry loop: TCP connect
// plus hello/hello-ack handshake, retried with capped exponential
// backoff and jitter (see backoff.go) until the deadline. Transient
// failures — connection refused, reset/EOF/timeout while the peer
// restarts mid-accept — retry; a protocol mismatch fails immediately.
// Each attempt's TCP connect and handshake get their own short
// deadlines so one blackholed SYN or wedged accept cannot consume the
// whole budget, and neither outlasts the budget itself.
func (n *Node) connect(addr string, deadline time.Time) (net.Conn, error) {
	bo := NewBackoff(BackoffConfig{})
	// Never empty-handed without an error: a budget that has run out by
	// the time the first attempt would start is a failed dial.
	lastErr := error(os.ErrDeadlineExceeded)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		conn, err := net.DialTimeout("tcp", addr, min(time.Second, remain))
		if err == nil {
			hsDeadline := time.Now().Add(2 * time.Second)
			if hsDeadline.After(deadline) {
				hsDeadline = deadline
			}
			herr := n.handshake(conn, hsDeadline)
			if herr == nil {
				return conn, nil
			}
			conn.Close()
			if errors.Is(herr, errProtocol) {
				return nil, herr
			}
			err = herr
		}
		lastErr = err
		d := bo.Next()
		if remain := time.Until(deadline); d > remain {
			d = remain
		}
		if d > 0 {
			time.Sleep(d)
		}
	}
	return nil, lastErr
}

// Dial connects to peer id at addr, retrying the TCP connect — and
// transient handshake failures such as a peer restarting mid-accept —
// until the deadline (peers start in arbitrary order), then performs
// the hello/hello-ack handshake, which checks the version and names
// the update codec. Protocol mismatches fail immediately.
//
// A connection to a peer that is already connected (it restarted on
// its original address, or the old connection was torn) replaces the
// old one: sends switch to the new connection at once, the old one's
// writer drains what its outbox still holds (bounded by
// closeDrainTimeout if the socket is wedged — an abandoned update was
// never committed, so its mass is re-sent on the new connection) and
// Dial returns once it has closed it.
func (n *Node) Dial(id int, addr string, timeout time.Duration) error {
	n.mu.Lock()
	closed := n.sendsClosed
	n.mu.Unlock()
	if closed {
		return errSendsClosed
	}
	conn, err := n.connect(addr, time.Now().Add(timeout))
	if err != nil {
		if errors.Is(err, errProtocol) {
			return err
		}
		return fmt.Errorf("transport: dial peer %d at %s: %w", id, addr, err)
	}
	n.mu.Lock()
	if n.sendsClosed {
		n.mu.Unlock()
		// CloseSends ran while this dial connected: leave the way every
		// other connection did, with a goodbye.
		conn.Write(appendFrame(nil, frameHeader{kind: frameGoodbye, from: uint32(n.id)}, nil))
		conn.Close()
		return errSendsClosed
	}
	old := n.peers[id]
	n.adopt(id, conn)
	n.mu.Unlock()
	if old != nil {
		old.stop(false)
		<-old.done
	}
	return nil
}

// adopt installs a handshaken connection as the one to peer id and
// starts its writer. Called under n.mu.
func (n *Node) adopt(id int, conn net.Conn) {
	p := newPeer(conn, n.cfg.Compressor)
	if old := n.peers[id]; old != nil {
		p.gen = old.gen + 1
	}
	n.peers[id] = p
	n.wg.Add(1)
	go n.writeLoop(p, id)
}

// handshake names this node's codec in a hello and waits for the
// acceptor's ack, which echoes it.
func (n *Node) handshake(conn net.Conn, deadline time.Time) error {
	codec := n.cfg.Compressor.Kind()
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	hello := appendFrame(nil, frameHeader{kind: frameHello, codec: codec, from: uint32(n.id)}, nil)
	if _, err := conn.Write(hello); err != nil {
		return fmt.Errorf("transport: handshake send: %w", err)
	}
	h, _, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("transport: handshake read: %w", err)
	}
	if h.kind != frameHelloAck || h.codec != codec {
		return fmt.Errorf("transport: handshake got frame kind %d codec %v, want a hello-ack of %v: %w", h.kind, h.codec, codec, errProtocol)
	}
	return nil
}

// Send queues m (stamped with this node's id) for peer id and returns;
// the peer's writer puts it on the wire. It is safe for concurrent use
// and frames to one peer leave in the order their Sends returned,
// except that control frames overtake an update still being written
// (between its chunks). Send blocks only when
// the peer's outbox is full or, for an update, while the previous
// update to the same peer is unresolved. An update is encoded before
// Send returns, on the caller's goroutine, and its Params are not read
// after.
//
// Updates sent to several peers are encoded once where the streams
// allow it, and recognised by identity, not content: within one Iter,
// Params with the same backing array and length must be the same
// update — do not modify the vector between the Sends of one
// iteration.
//
// A nil return means queued, not written: write failures are reported
// through Config.OnSendError.
func (n *Node) Send(id int, m Message) error {
	for {
		p := n.peer(id)
		if p == nil {
			return fmt.Errorf("transport: no connection to peer %d", id)
		}
		var err error
		switch m.Kind {
		case KindUpdate:
			err = n.sendUpdate(p, m)
		case KindToken:
			err = p.enqueue(frameHeader{kind: frameToken, from: uint32(n.id), iter: int32(m.Iter)}, true)
		default:
			err = fmt.Errorf("unknown message kind %d", m.Kind)
		}
		if err == errPeerClosed && n.peer(id) != p {
			continue // a Dial replaced the connection meanwhile: the frame belongs on the new one
		}
		if err != nil {
			return fmt.Errorf("transport: send to %d: %w", id, err)
		}
		return nil
	}
}

// peer returns the current connection to peer id, or nil.
func (n *Node) peer(id int) *peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[id]
}

// Flush blocks until every frame queued before the call has been
// written to its socket or has failed (and been reported). It is how a
// caller that is done sending makes sure its last words are on the
// wire — and in Stats — before it moves on.
func (n *Node) Flush() {
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		for !p.idle() {
			p.room.Wait()
		}
		p.mu.Unlock()
	}
}

// CloseSends ends this node's sending half and returns once it is
// done: every outgoing connection drains its outbox, says goodbye and
// closes, exactly as under Close, and later Sends and Dials fail. The listener and the inbound readers keep running, so a node
// that has nothing more to say still hears the peers that do.
func (n *Node) CloseSends() {
	for _, p := range n.stopSends() {
		<-p.done
	}
}

// stopSends stops every outgoing connection (drain, goodbye, close)
// without waiting for the writers, and bars new ones.
func (n *Node) stopSends() map[int]*peer {
	n.mu.Lock()
	peers := n.peers
	n.peers = map[int]*peer{}
	n.sendsClosed = true
	n.mu.Unlock()
	for _, p := range peers {
		p.stop(true)
	}
	return peers
}

// Close shuts the listener and all peer connections — both the
// outgoing connections this node dialed and the inbound connections it
// accepted — and waits for the reader and writer goroutines to finish.
// Every outgoing connection's writer first drains its outbox and then
// announces the orderly close with a goodbye, so a goodbye never
// overtakes a queued token or update.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.done) // stops the heartbeat loop
	inbound := n.inbound
	n.inbound = nil
	n.mu.Unlock()
	n.ln.Close()
	n.stopSends()
	for _, c := range inbound {
		c.Close()
	}
	n.wg.Wait()
}
