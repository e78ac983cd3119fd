package transport

// outbox_test.go — the contract of the per-peer outbox and its writer
// (DESIGN.md §9.1), checked against a fake net.Conn so that a test can
// hold the socket, fail it, and read back exactly what was written and
// in how many writes.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hop/internal/chaos"
	"hop/internal/compress"
	"hop/internal/tensor"
)

// byteStream is one direction of a fake connection: writes append,
// reads drain, a closed stream reads as EOF once empty. The buffer is
// reused when it runs empty, so a steady exchange allocates nothing.
type byteStream struct {
	mu     sync.Mutex
	ready  sync.Cond
	buf    []byte
	off    int
	closed bool
}

func newByteStream() *byteStream {
	s := &byteStream{}
	s.ready.L = &s.mu
	return s
}

func (s *byteStream) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, io.ErrClosedPipe
	}
	s.buf = append(s.buf, b...)
	s.ready.Broadcast()
	return len(b), nil
}

func (s *byteStream) Read(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.off == len(s.buf) && !s.closed {
		s.ready.Wait()
	}
	if s.off == len(s.buf) {
		return 0, io.EOF
	}
	n := copy(b, s.buf[s.off:])
	if s.off += n; s.off == len(s.buf) {
		s.buf, s.off = s.buf[:0], 0
	}
	return n, nil
}

func (s *byteStream) Close() {
	s.mu.Lock()
	s.closed = true
	s.ready.Broadcast()
	s.mu.Unlock()
}

// fakeConn is one end of an in-memory connection. The dialing end's
// writes can be held (hold/release, with entered reporting a Write
// that is waiting), failed (failNext), and are logged (written) when
// keepLog is set; deadlines are ignored.
type fakeConn struct {
	rd, wr *byteStream

	mu      sync.Mutex
	unheld  sync.Cond
	held    bool
	entered chan struct{} // one token per Write that found the conn held
	keepLog bool
	log     []byte

	failNext atomic.Int32
}

func fakePair() (dialer, acceptor *fakeConn) {
	a, b := newByteStream(), newByteStream()
	dialer = &fakeConn{rd: a, wr: b, entered: make(chan struct{}, 1024)}
	acceptor = &fakeConn{rd: b, wr: a, entered: make(chan struct{}, 1024)}
	dialer.unheld.L, acceptor.unheld.L = &dialer.mu, &acceptor.mu
	return dialer, acceptor
}

func (c *fakeConn) hold() {
	c.mu.Lock()
	c.held = true
	c.mu.Unlock()
}

func (c *fakeConn) release() {
	c.mu.Lock()
	c.held = false
	c.unheld.Broadcast()
	c.mu.Unlock()
}

func (c *fakeConn) written() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.log...)
}

var errInjected = errors.New("injected write failure")

func (c *fakeConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.held {
		c.entered <- struct{}{}
		for c.held {
			c.unheld.Wait()
		}
	}
	if c.failNext.Load() > 0 {
		c.failNext.Add(-1)
		c.mu.Unlock()
		return 0, errInjected
	}
	if c.keepLog {
		c.log = append(c.log, b...)
	}
	c.mu.Unlock()
	return c.wr.Write(b)
}

func (c *fakeConn) Read(b []byte) (int, error) { return c.rd.Read(b) }
func (c *fakeConn) Close() error               { c.wr.Close(); c.rd.Close(); return nil }

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

func (c *fakeConn) LocalAddr() net.Addr              { return fakeAddr{} }
func (c *fakeConn) RemoteAddr() net.Addr             { return fakeAddr{} }
func (c *fakeConn) SetDeadline(time.Time) error      { return nil }
func (c *fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }

// fakeLink is a tx node whose peer 1 is a fake connection read by an
// rx node's ordinary read loop.
type fakeLink struct {
	tx, rx *Node
	conn   *fakeConn // tx's end
	got    chan Message
	// down receives readConn's verdict when the connection ends.
	down chan error
}

// linkFake handshakes a fake connection between two nodes and starts
// tx's writer and rx's reader on it. Received updates are recycled and
// every received message is reported on got.
func linkFake(t *testing.T, txCfg Config) *fakeLink {
	t.Helper()
	l := &fakeLink{got: make(chan Message, 4096), down: make(chan error, 1)}
	var err error
	l.rx, err = Listen(1, "127.0.0.1:0", func(m Message) {
		if m.Kind == KindUpdate {
			m.Params = append([]float64(nil), m.Params...)
		}
		l.got <- m
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.rx.Close)
	l.tx, err = ListenConfig(0, "127.0.0.1:0", func(Message) {}, txCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.tx.Close)
	dial, accept := fakePair()
	l.conn = dial
	go func() {
		sender, err := l.rx.readConn(accept)
		if err == nil && sender != 0 {
			err = errors.New("connection pinned to the wrong sender")
		}
		l.down <- err
	}()
	if err := l.tx.handshake(dial, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	l.tx.mu.Lock()
	l.tx.adopt(1, dial)
	l.tx.mu.Unlock()
	return l
}

// recv returns the next n messages rx handled, failing the test if
// they do not arrive.
func (l *fakeLink) recv(t *testing.T, n int) []Message {
	t.Helper()
	out := make([]Message, 0, n)
	for len(out) < n {
		select {
		case m := <-l.got:
			out = append(out, m)
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d of %d messages: %v", len(out), n, out)
		}
	}
	return out
}

// blockWriter holds the connection and sends one token, returning once
// the writer is inside the held Write: whatever is sent next stays in
// the outbox until release.
func (l *fakeLink) blockWriter(t *testing.T) {
	t.Helper()
	l.conn.hold()
	if err := l.tx.Send(1, Message{Kind: KindToken, Iter: -1, Count: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.conn.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reached the socket")
	}
}

func wantKinds(t *testing.T, got []Message, want ...Kind) {
	t.Helper()
	for i, k := range want {
		if got[i].Kind != k {
			t.Fatalf("message %d is %v, want %v (all: %v)", i, got[i], k, got)
		}
	}
}

// (a) Whatever accumulates while the writer is busy leaves in order,
// in one write.
func TestOutboxCoalescesIntoOneWrite(t *testing.T) {
	l := linkFake(t, Config{})
	l.blockWriter(t)
	for _, m := range []Message{
		{Kind: KindToken, Iter: 4, Count: 2},
		{Kind: KindAck, Iter: 3},
		{Kind: KindUpdate, Iter: 4, Params: []float64{1, 2, 3}},
	} {
		if err := l.tx.Send(1, m); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.tx.Stats(); st.Writes != 0 || st.FramesSent != 0 {
		t.Fatalf("with the socket held: %d writes, %d frames", st.Writes, st.FramesSent)
	}
	l.conn.release()
	got := l.recv(t, 4)
	wantKinds(t, got, KindToken, KindToken, KindAck, KindUpdate)
	if got[1].Iter != 4 || got[1].Count != 2 || got[2].Iter != 3 || got[3].Iter != 4 || len(got[3].Params) != 3 {
		t.Fatalf("fields garbled: %v", got)
	}
	l.tx.Flush()
	// One write for the token that blocked, one for the three behind it.
	if st := l.tx.Stats(); st.Writes != 2 || st.FramesSent != 4 || st.BytesSent != 4*ctlFrameLen+24 {
		t.Fatalf("%d writes, %d frames, %d bytes; want 2, 4, %d", st.Writes, st.FramesSent, st.BytesSent, 4*ctlFrameLen+24)
	}
}

// (b) Flush-when-idle: a token with nothing behind it does not wait
// for company — the send-check-suppressed, directed-graph and
// last-iteration cases.
func TestOutboxLoneTokenLeavesAtOnce(t *testing.T) {
	l := linkFake(t, Config{})
	if err := l.tx.Send(1, Message{Kind: KindToken, Iter: 9, Count: 1}); err != nil {
		t.Fatal(err)
	}
	got := l.recv(t, 1)
	wantKinds(t, got, KindToken)
	l.tx.Flush()
	if st := l.tx.Stats(); st.Writes != 1 || st.FramesSent != 1 {
		t.Fatalf("%d writes, %d frames for one token", st.Writes, st.FramesSent)
	}
}

// An update without parameters is still a frame: its header carries the
// sender and iteration tags. Both an empty and a nil vector arrive, with
// and without the chaos filter assembling the batch.
func TestOutboxEmptyUpdateIsDelivered(t *testing.T) {
	for name, cfg := range map[string]Config{
		"plain": {},
		"chaos": {Chaos: &chaos.Config{Seed: 1}}, // injects nothing, still filters
	} {
		t.Run(name, func(t *testing.T) {
			l := linkFake(t, cfg)
			for i, params := range [][]float64{{}, nil} {
				if err := l.tx.Send(1, Message{Kind: KindUpdate, Iter: 7 + i, Params: params}); err != nil {
					t.Fatal(err)
				}
			}
			got := l.recv(t, 2)
			wantKinds(t, got, KindUpdate, KindUpdate)
			if got[0].Iter != 7 || got[1].Iter != 8 || len(got[0].Params)+len(got[1].Params) != 0 {
				t.Fatalf("fields garbled: %v", got)
			}
			l.tx.Flush()
			if st := l.tx.Stats(); st.FramesSent != 2 || st.UpdatesSent != 2 || st.BytesSent != 2*ctlFrameLen {
				t.Fatalf("%d frames, %d updates, %d bytes; want 2, 2, %d", st.FramesSent, st.UpdatesSent, st.BytesSent, 2*ctlFrameLen)
			}
		})
	}
}

// (c) A token queued while a multi-chunk update is being written goes
// out between its chunks.
func TestOutboxTokenInterleavesBetweenChunks(t *testing.T) {
	l := linkFake(t, Config{})
	l.conn.keepLog = true
	l.conn.hold()
	if err := l.tx.Send(1, Message{Kind: KindUpdate, Iter: 2, Params: make([]float64, 2*maxChunk/8+1)}); err != nil { // 3 chunks
		t.Fatal(err)
	}
	select {
	case <-l.conn.entered: // inside chunk 0's write
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reached the socket")
	}
	if err := l.tx.Send(1, Message{Kind: KindToken, Iter: 3, Count: 1}); err != nil {
		t.Fatal(err)
	}
	l.conn.release()
	wantKinds(t, l.recv(t, 2), KindToken, KindUpdate)
	l.tx.Flush()
	fr := newFrameReader(bytes.NewReader(l.conn.written()))
	var order []frameKind
	for {
		h, _, err := fr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, h.kind)
	}
	want := []frameKind{frameUpdate, frameToken, frameUpdate, frameUpdate}
	if len(order) != len(want) {
		t.Fatalf("wire order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wire order %v, want %v", order, want)
		}
	}
	// Chunk 0 alone, then the token in chunk 1's write, then chunk 2.
	if st := l.tx.Stats(); st.Writes != 3 || st.FramesSent != 4 {
		t.Fatalf("%d writes, %d frames", st.Writes, st.FramesSent)
	}
}

// (d) Close drains the outbox before the goodbye: the receiver gets
// the queued token and then a clean close.
func TestOutboxCloseDrainsBeforeGoodbye(t *testing.T) {
	l := linkFake(t, Config{})
	l.blockWriter(t)
	if err := l.tx.Send(1, Message{Kind: KindToken, Iter: 7, Count: 1}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		l.tx.Close()
		close(closed)
	}()
	// Let Close mark the outbox before the writer can drain it.
	for l.tx.peer(1) != nil {
		time.Sleep(time.Millisecond)
	}
	l.conn.release()
	got := l.recv(t, 2)
	if got[1].Kind != KindToken || got[1].Iter != 7 {
		t.Fatalf("queued token lost: %v", got)
	}
	select {
	case err := <-l.down:
		if err != nil {
			t.Fatalf("receiver saw an unclean close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver never saw the connection end")
	}
	<-closed
	if err := l.tx.Send(1, Message{Kind: KindToken}); err == nil {
		t.Error("send after Close succeeded")
	}
}

// (e) A failed write is reported once, leaves the TopK stream
// uncommitted, and the next update re-sends the mass the failed frame
// carried.
func TestOutboxFailedWriteIsNeverCommitted(t *testing.T) {
	var mu sync.Mutex
	var reports []error
	l := linkFake(t, Config{
		Compressor: compress.NewDeltaEncoder(0.25),
		OnSendError: func(peer int, err error) {
			mu.Lock()
			reports = append(reports, err)
			mu.Unlock()
		},
	})
	x := make([]float64, 8)
	send := func(iter int) {
		t.Helper()
		if err := l.tx.Send(1, Message{Kind: KindUpdate, Iter: iter, Params: x}); err != nil {
			t.Fatal(err)
		}
		l.tx.Flush()
	}
	send(0) // dense warm start
	l.recv(t, 1)
	// The whole change of this step fits one frame (k = 2) — which is
	// lost.
	x[1], x[6] = 5, -7
	l.conn.failNext.Store(1)
	send(1)
	mu.Lock()
	n := len(reports)
	mu.Unlock()
	if n != 1 || !errors.Is(reports[0], errInjected) {
		t.Fatalf("OnSendError calls: %v", reports)
	}
	if st := l.tx.Stats(); st.UpdatesSent != 1 {
		t.Fatalf("failed update counted as sent (%d)", st.UpdatesSent)
	}
	// Same state again: a committed failure would find nothing left to
	// send and the receiver would never learn x[1] and x[6].
	send(2)
	m := l.recv(t, 1)[0]
	if m.Iter != 2 {
		t.Fatalf("the failed frame reached the receiver: %v", m)
	}
	for i := range x {
		if m.Params[i] != x[i] {
			t.Fatalf("receiver reconstructs %v, sender holds %v", m.Params, x)
		}
	}
}

// (f) A full outbox blocks its producer until the writer drains it,
// and loses nothing.
func TestOutboxFullBlocksProducer(t *testing.T) {
	l := linkFake(t, Config{})
	l.blockWriter(t)
	for i := 0; i < outboxFrames; i++ {
		if err := l.tx.Send(1, Message{Kind: KindAck, Iter: i}); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- l.tx.Send(1, Message{Kind: KindAck, Iter: outboxFrames}) }()
	select {
	case <-sent:
		t.Fatal("send into a full outbox did not block")
	case <-time.After(50 * time.Millisecond):
	}
	l.conn.release()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	got := l.recv(t, outboxFrames+2)
	for i, m := range got[1:] {
		if m.Kind != KindAck || m.Iter != i {
			t.Fatalf("frame %d is %v", i, m)
		}
	}
}

// (g) The steady state allocates nothing: a token from Send to the
// peer's handler, and an uncompressed update likewise, both ways
// through the outbox, the vectored write and the in-place reader — and
// a topk:0.1 update to two sibling peers, one stream leading the encode
// and the other riding it (§9.2), through the pooled shared entry and
// its ready latch.
func TestOutboxSteadyStateAllocatesNothing(t *testing.T) {
	got := make(chan struct{}, 2)
	listen := func(id int, cfg Config) *Node {
		n, err := ListenConfig(id, "127.0.0.1:0", func(m Message) {
			tensor.PutVec(m.Params)
			got <- struct{}{}
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	rx1, rx2 := listen(1, Config{}), listen(2, Config{})
	tx := listen(0, Config{})
	txTopK := listen(3, Config{Compressor: compress.NewDeltaEncoder(0.1)})
	for _, d := range []struct {
		from *Node
		to   int
		addr string
	}{{tx, 1, rx1.Addr()}, {txTopK, 1, rx1.Addr()}, {txTopK, 2, rx2.Addr()}} {
		if err := d.from.Dial(d.to, d.addr, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	params := make([]float64, 4096)
	iter := 0
	exchange := func(from *Node, kind Kind, to ...int) func() {
		return func() {
			iter++
			for i := range params {
				// Every coordinate drifts, so a TopK frame is a real
				// selection and not a run of ties.
				params[i] += float64((i*7+iter*13)%31-15) * 1e-3
			}
			for _, id := range to {
				if err := from.Send(id, Message{Kind: kind, Iter: iter, Count: 1, Params: params}); err != nil {
					t.Fatal(err)
				}
			}
			for range to {
				<-got
			}
		}
	}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"token", exchange(tx, KindToken, 1)},
		{"update", exchange(tx, KindUpdate, 1)},
		{"topk update, leader and rider", exchange(txTopK, KindUpdate, 1, 2)},
	} {
		for i := 0; i < 20; i++ {
			c.run() // warm the pools and the socket buffers
		}
		if avg := testing.AllocsPerRun(200, c.run); avg != 0 && !raceEnabled {
			t.Errorf("%s exchange: %.2f allocs", c.name, avg)
		}
	}
}

// Resend repeats the newest staged update on a connection a second
// Dial replaced, whichever codec staged it: a stateless entry holds only its payload,
// a stream entry its snapshot, and the fresh TopK stream starts dense.
func TestResendAfterRedial(t *testing.T) {
	for name, comp := range map[string]compress.Compressor{
		"none": nil, "float32": compress.NewFloat32(), "topk": compress.NewDeltaEncoder(0.25),
	} {
		t.Run(name, func(t *testing.T) {
			got := make(chan Message, 8)
			rx, err := Listen(1, "127.0.0.1:0", func(m Message) {
				m.Params = append([]float64(nil), m.Params...)
				got <- m
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			tx, err := ListenConfig(0, "127.0.0.1:0", func(Message) {}, Config{Compressor: comp})
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()
			if err := tx.Resend(1); err != nil {
				t.Fatalf("Resend with nothing staged: %v", err)
			}
			if err := tx.Dial(1, rx.Addr(), 2*time.Second); err != nil {
				t.Fatal(err)
			}
			x := []float64{1.5, -2, 0, 0.25, 0, 0, -0.5, 8}
			if err := tx.Send(1, Message{Kind: KindUpdate, Iter: 3, Params: x}); err != nil {
				t.Fatal(err)
			}
			first := <-got
			clear(x) // the caller's vector is long gone by the time of a heal
			if err := tx.Dial(1, rx.Addr(), 2*time.Second); err != nil {
				t.Fatal(err)
			}
			if err := tx.Resend(1); err != nil {
				t.Fatal(err)
			}
			again := <-got
			if again.Kind != KindUpdate || again.Iter != 3 || !slices.Equal(again.Params, first.Params) || again.Params[7] != 8 {
				t.Fatalf("resent %v, first delivery %v", again, first)
			}
			tx.Flush()
			if st := tx.Stats(); st.UpdatesSent != 2 {
				t.Fatalf("%d updates sent, want 2", st.UpdatesSent)
			}
		})
	}
}
