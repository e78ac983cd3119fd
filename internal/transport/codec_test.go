package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hop/internal/compress"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	want := frameHeader{
		kind: frameUpdate, codec: compress.TopK,
		chunkIndex: 3, chunkCount: 9,
		from: 41, iter: 1 << 20, count: -7, seq: 0xdeadbeef,
	}
	payload := []byte{1, 2, 3, 4, 5}
	h, got, err := readFrame(bytes.NewReader(appendFrame(nil, want, payload)))
	if err != nil {
		t.Fatal(err)
	}
	want.payloadLen = uint32(len(payload))
	if h != want {
		t.Errorf("header %+v, want %+v", h, want)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload %v", got)
	}
}

func TestParseHeaderRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		return appendFrame(nil, frameHeader{kind: frameToken, from: 1, iter: 2, count: 3}, nil)
	}
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"bad magic", func(b []byte) { b[0] = 'X' }},
		{"version skew", func(b []byte) { b[3] = 1 }}, // v1 TopK frames are absolute, not deltas
		{"future version", func(b []byte) { b[3] = 9 }},
		{"unknown kind", func(b []byte) { b[4] = 99 }},
		{"reserved set", func(b []byte) { b[10] = 1 }},
		{"zero chunk count", func(b []byte) { b[4] = byte(frameUpdate); b[8], b[9] = 0, 0 }},
		{"chunk index past count", func(b []byte) { b[4] = byte(frameUpdate); b[6] = 5; b[8] = 2 }},
		{"empty chunk in multi-chunk", func(b []byte) { b[4] = byte(frameUpdate); b[8] = 4 }},
	}
	for _, c := range cases {
		b := valid()
		c.mutate(b)
		if _, err := parseHeader(b); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := parseHeader(valid()[:12]); err == nil {
		t.Error("short header accepted")
	}
	// The payload length is checked before the CRC can be, by framePrefix.
	oversized := valid()
	binary.LittleEndian.PutUint32(oversized[28:], maxChunk+1)
	if _, err := framePrefix(oversized); !errors.Is(err, errCorruptFrame) {
		t.Errorf("oversized payload: framePrefix says %v, want errCorruptFrame", err)
	}
}

// FuzzParseHeader asserts arbitrary header bytes never panic and that
// anything accepted re-encodes to the same bytes (canonical form).
func FuzzParseHeader(f *testing.F) {
	f.Add(appendFrame(nil, frameHeader{kind: frameAck, from: 2, iter: 11}, nil))
	f.Add(bytes.Repeat([]byte{0xff}, headerLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := parseHeader(b)
		if err != nil {
			return
		}
		h.payloadLen = 0 // appendFrame derives it from the payload
		out := appendFrame(nil, h, nil)
		if !bytes.Equal(out[:28], b[:28]) {
			t.Fatalf("re-encode mismatch: %x vs %x", out[:28], b[:28])
		}
	})
}

func TestReassembler(t *testing.T) {
	var ra reassembler
	hdr := func(seq uint32, idx, count uint16) frameHeader {
		return frameHeader{kind: frameUpdate, codec: compress.None, seq: seq, chunkIndex: idx, chunkCount: count, from: 1, iter: 4}
	}
	// feed adds the chunks of update seq with the given indices, each
	// carrying payload seq*10+index, and returns what completed.
	feed := func(seq uint32, count uint16, idx ...uint16) [][]byte {
		t.Helper()
		var done [][]byte
		for _, i := range idx {
			_, payload, ok, err := ra.add(hdr(seq, i, count), []byte{byte(seq*10) + byte(i)})
			if err != nil {
				t.Fatalf("seq %d chunk %d: %v", seq, i, err)
			}
			if ok {
				done = append(done, append([]byte(nil), payload...))
			}
		}
		return done
	}
	// Single-chunk messages pass straight through.
	h, payload, done, err := ra.add(hdr(1, 0, 1), []byte{9})
	if err != nil || !done || len(payload) != 1 || h.iter != 4 {
		t.Fatalf("single chunk: done=%v err=%v", done, err)
	}
	// Chunks in order complete the update, once.
	if got := feed(2, 3, 0, 1, 2); len(got) != 1 || !bytes.Equal(got[0], []byte{20, 21, 22}) {
		t.Fatalf("in-order update: %v", got)
	}
	// A lost middle chunk loses its update; the next one recovers.
	if got := feed(3, 3, 0, 2); len(got) != 0 {
		t.Fatalf("update with a lost middle chunk completed: %v", got)
	}
	if got := feed(4, 2, 0, 1); len(got) != 1 || !bytes.Equal(got[0], []byte{40, 41}) {
		t.Fatalf("update after a lost middle chunk: %v", got)
	}
	// So does a lost first chunk.
	if got := feed(5, 3, 1, 2); len(got) != 0 {
		t.Fatalf("update with a lost first chunk completed: %v", got)
	}
	if got := feed(6, 2, 0, 1); len(got) != 1 || !bytes.Equal(got[0], []byte{60, 61}) {
		t.Fatalf("update after a lost first chunk: %v", got)
	}
	// Contract violations are errors, not loss.
	feed(7, 3, 0)
	if _, _, _, err = ra.add(hdr(7, 0, 3), []byte{1}); err == nil {
		t.Error("duplicate chunk accepted")
	}
	if _, _, _, err = ra.add(hdr(7, 1, 4), []byte{1}); err == nil {
		t.Error("inconsistent chunk count accepted")
	}
	bad := hdr(7, 1, 3)
	bad.codec = compress.Float32
	if _, _, _, err = ra.add(bad, []byte{1}); err == nil {
		t.Error("inconsistent codec accepted")
	}
	bad = hdr(7, 1, 3)
	bad.iter = 99
	if _, _, _, err = ra.add(bad, []byte{1}); err == nil {
		t.Error("inconsistent iter accepted — chunks of two updates would merge")
	}
	bad = hdr(7, 1, 3)
	bad.from = 9
	if _, _, _, err = ra.add(bad, []byte{1}); err == nil {
		t.Error("inconsistent from accepted")
	}
}

func TestMessageString(t *testing.T) {
	cases := []struct {
		m    Message
		want string
	}{
		{Message{Kind: KindUpdate, From: 2, Iter: 7, Params: make([]float64, 3)}, "update{from:2 iter:7 dim:3}"},
		{Message{Kind: KindToken, From: 1, Iter: 4, Count: 2}, "token{from:1 iter:4 count:2}"},
		{Message{Kind: KindAck, From: 0, Iter: 9}, "ack{from:0 iter:9}"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if s := (Message{Kind: Kind(9)}).String(); !strings.Contains(s, "kind(9)") {
		t.Errorf("unknown kind String() = %q", s)
	}
}

// pipe returns a connected (receiver, sender) node pair, the receiver
// buffering every message.
func pipe(t *testing.T, rxCfg, txCfg Config) (*Node, *Node, func() []Message) {
	t.Helper()
	var mu sync.Mutex
	var got []Message
	rx, err := ListenConfig(1, "127.0.0.1:0", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}, rxCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rx.Close)
	tx, err := ListenConfig(0, "127.0.0.1:0", func(Message) {}, txCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tx.Close)
	if err := tx.Dial(1, rx.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	return rx, tx, func() []Message {
		mu.Lock()
		defer mu.Unlock()
		return append([]Message(nil), got...)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never met")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChunkedUpdateRoundTrip sends an update several chunks long and
// checks tags and params survive exactly.
func TestChunkedUpdateRoundTrip(t *testing.T) {
	rx, tx, got := pipe(t, Config{}, Config{})
	params := make([]float64, 3*maxChunk/8+100) // 3 full chunks and a partial one
	rng := rand.New(rand.NewSource(7))
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	if err := tx.Send(1, Message{Kind: KindUpdate, Iter: 42, Params: params}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got()) == 1 })
	m := got()[0]
	if m.From != 0 || m.Iter != 42 {
		t.Fatalf("tags corrupted: %v", m)
	}
	for i := range params {
		if m.Params[i] != params[i] {
			t.Fatalf("coord %d: %g != %g in %v", i, m.Params[i], params[i], m)
		}
	}
	if s := tx.Stats(); s.FramesSent < 4 {
		t.Errorf("only %d frames for a 4-chunk update", s.FramesSent)
	}
	if s := rx.Stats(); s.UpdatesRecv != 1 {
		t.Errorf("receiver counted %d updates", s.UpdatesRecv)
	}
}

// TestCompressedUpdateNegotiated checks a Float32 sender's payload
// arrives decoded (float32-rounded) and the wire counters show the
// savings.
func TestCompressedUpdateNegotiated(t *testing.T) {
	_, tx, got := pipe(t, Config{}, Config{Compressor: compress.NewFloat32()})
	params := []float64{1.5, -2.25, 1e-3}
	if err := tx.Send(1, Message{Kind: KindUpdate, Iter: 3, Params: params}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got()) == 1 })
	m := got()[0]
	for i := range params {
		if m.Params[i] != float64(float32(params[i])) {
			t.Fatalf("coord %d: %g in %v", i, m.Params[i], m)
		}
	}
	s := tx.Stats()
	if s.RawUpdateBytesSent != 24 || s.WireUpdateBytesSent != 12 {
		t.Errorf("raw=%d wire=%d, want 24/12", s.RawUpdateBytesSent, s.WireUpdateBytesSent)
	}
	if r := s.CompressionRatio(); r != 2 {
		t.Errorf("ratio %g", r)
	}
}

// unsupportedCodec names a codec kind no build of this wire version
// decodes.
type unsupportedCodec struct{ compress.Compressor }

func (unsupportedCodec) Kind() compress.Kind { return compress.Kind(200) }

// TestRefusesUnsupportedCodec: a node will not be configured with a
// Compressor whose kind is not a wire codec, and a hello naming one is
// refused at the handshake like any non-hop peer, never downgraded.
func TestRefusesUnsupportedCodec(t *testing.T) {
	if n, err := ListenConfig(0, "127.0.0.1:0", func(Message) {}, Config{Compressor: unsupportedCodec{compress.NewNone()}}); err == nil {
		n.Close()
		t.Fatal("ListenConfig accepted a compressor of kind 200")
	}
	hello := appendFrame(nil, frameHeader{kind: frameHello, codec: compress.Kind(200), from: 1}, nil)
	refusesFirstBytes(t, hello, "codec(200), not a wire codec")
}

// TestRejectsNonHopPeer: garbage instead of a hello must close the
// connection without delivering anything, and be reported as a
// connection that died before its hello.
func TestRejectsNonHopPeer(t *testing.T) {
	// Longer than a frame header, so the verdict does not wait on more
	// bytes.
	refusesFirstBytes(t, []byte("GET / HTTP/1.1\r\nHost: hop.invalid\r\n\r\n"), "bad magic")
}

// TestRefusesV3Hello: a well-formed hello from a version-3 peer, whose
// TopK pairs carry uint32 indices where this version reads gap
// varints, is refused at the handshake like any non-hop peer.
func TestRefusesV3Hello(t *testing.T) {
	hello := appendFrame(nil, frameHeader{kind: frameHello, codec: compress.TopK, from: 1}, nil)
	hello[3] = 3
	binary.LittleEndian.PutUint32(hello[headerLen:], frameCRC(hello[:headerLen], nil))
	refusesFirstBytes(t, hello, "bad magic")
}

// refusesFirstBytes opens a connection to a listening node, writes b
// and requires the node to drop the connection unanswered, deliver
// nothing and report a diagnosis containing why from a peer it never
// identified.
func refusesFirstBytes(t *testing.T, b []byte, why string) {
	t.Helper()
	type down struct {
		peer int
		err  error
	}
	downs := make(chan down, 4)
	rx, _, got := pipe(t, Config{OnPeerDown: func(peer int, err error) {
		downs <- down{peer, err}
	}}, Config{})
	conn, err := net.Dial("tcp", rx.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(b)
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("non-hop peer was answered instead of dropped")
	}
	if len(got()) != 0 {
		t.Errorf("garbage delivered messages: %v", got())
	}
	select {
	case d := <-downs:
		if d.peer != -1 || d.err == nil || !strings.Contains(d.err.Error(), why) {
			t.Errorf("OnPeerDown(%d, %v), want peer -1 with a diagnosis containing %q", d.peer, d.err, why)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("dropped connection never reported")
	}
	if n := rx.Stats().ReadErrors; n != 1 {
		t.Errorf("ReadErrors = %d, want 1", n)
	}
}

// TestTopKUpdatesAreDeltaStreams: with a TopK sender, the receiver
// must see the sender's full state (within float32 rounding and
// residual feedback), not a zero-filled sparse vector — the defect
// that made topk:0.1 destroy training when averaged into a model.
func TestTopKUpdatesAreDeltaStreams(t *testing.T) {
	_, tx, got := pipe(t, Config{}, Config{Compressor: compress.NewDeltaEncoder(0.25)})
	const dim, rounds = 64, 30
	x := make([]float64, dim)
	for i := range x {
		x[i] = float64(i) + 1 // every coordinate non-zero
	}
	for r := 0; r < rounds; r++ {
		if err := tx.Send(1, Message{Kind: KindUpdate, Iter: r, Params: x}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(got()) == rounds })
	// First frame is the dense warm start: exact to float32.
	for i, v := range got()[0].Params {
		if v != float64(float32(x[i])) {
			t.Fatalf("warm start coord %d: %g, want %g", i, v, x[i])
		}
	}
	// A constant state must stay fully reconstructed on every
	// subsequent frame — no coordinate may collapse to zero.
	last := got()[rounds-1]
	for i, v := range last.Params {
		if diff := v - x[i]; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("steady state coord %d drifted: %g vs %g", i, v, x[i])
		}
	}
	// And the wire must actually have been sparse after the warm start.
	s := tx.Stats()
	steady := s.WireUpdateBytesSent - (8 + 8*dim) // minus warm-start payload
	perUpdate := steady / (rounds - 1)
	if perUpdate > 8+16*8 { // header + k=16 pairs
		t.Errorf("steady-state topk frames average %d bytes, not sparse", perUpdate)
	}
}

// TestReadErrorsObservable: a protocol violation after the handshake
// must surface through Config.OnPeerDown and the ReadErrors counter
// instead of tearing the connection down silently.
func TestReadErrorsObservable(t *testing.T) {
	errCh := make(chan error, 4)
	rx, err := ListenConfig(1, "127.0.0.1:0", func(Message) {}, Config{
		OnPeerDown: func(_ int, e error) { errCh <- e },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	conn, err := net.Dial("tcp", rx.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendFrame(nil, frameHeader{kind: frameHello, codec: compress.None, from: 9}, nil)); err != nil {
		t.Fatal(err)
	}
	ackBuf := make([]byte, headerLen+crcLen)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, ackBuf); err != nil {
		t.Fatalf("no hello-ack: %v", err)
	}
	// A hello after the handshake violates the protocol.
	if _, err := conn.Write(appendFrame(nil, frameHeader{kind: frameHello, from: 9}, nil)); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-errCh:
		if !strings.Contains(e.Error(), "after handshake") {
			t.Errorf("unexpected diagnosis: %v", e)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("read error never reported")
	}
	if got := rx.Stats().ReadErrors; got != 1 {
		t.Errorf("ReadErrors = %d, want 1", got)
	}
}

// helloConn dials addr and completes the handshake as sender from, for
// tests that then write raw bytes.
func helloConn(t *testing.T, addr string, from uint32) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(appendFrame(nil, frameHeader{kind: frameHello, codec: compress.None, from: from}, nil)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, make([]byte, headerLen+crcLen)); err != nil {
		t.Fatalf("no hello-ack: %v", err)
	}
	return conn
}

// listenDowns starts a receiver with the given Liveness whose
// OnPeerDown calls arrive on the returned channel.
func listenDowns(t *testing.T, liveness bool) (*Node, chan error) {
	t.Helper()
	downs := make(chan error, 4)
	rx, err := ListenConfig(1, "127.0.0.1:0", func(Message) {}, Config{
		Liveness: liveness,
		OnPeerDown: func(peer int, err error) {
			if peer != 5 {
				err = fmt.Errorf("OnPeerDown for peer %d, want 5: %v", peer, err)
			}
			downs <- err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rx.Close)
	return rx, downs
}

// updateHeader is an update frame's header claiming plen payload bytes.
func updateHeader(plen uint32) []byte {
	var b [headerLen]byte
	putHeader(&b, frameHeader{kind: frameUpdate, chunkCount: 1, from: 5, payloadLen: plen})
	return b[:]
}

// TestOversizedLengthTornAtOnce: a header claiming more than maxChunk
// payload bytes is corrupt on sight; the reader does not wait for the
// body, with or without a deadline.
func TestOversizedLengthTornAtOnce(t *testing.T) {
	rx, downs := listenDowns(t, false)
	conn := helloConn(t, rx.Addr(), 5)
	if _, err := conn.Write(updateHeader(maxChunk + 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-downs:
		if !errors.Is(err, errCorruptFrame) {
			t.Fatalf("OnPeerDown(5, %v), want errCorruptFrame", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("oversized length never tore the connection")
	}
	if n := rx.Stats().CorruptFrames; n != 1 {
		t.Errorf("CorruptFrames = %d, want 1", n)
	}
}

// TestOverdueFrameBodyTorn: a header whose length promises more bytes
// than follow, on a connection that stays audibly alive, must not wedge
// the reader. Under Liveness the body is due readDeadline after the
// header; the trickle of heartbeats behind it (which would take minutes
// to fill maxChunk bytes) does not extend that.
func TestOverdueFrameBodyTorn(t *testing.T) {
	rx, downs := listenDowns(t, true)
	conn := helloConn(t, rx.Addr(), 5)
	if _, err := conn.Write(append(updateHeader(maxChunk), 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		hb := appendFrame(nil, frameHeader{kind: frameHeartbeat, from: 5}, nil)
		tick := time.NewTicker(heartbeatInterval / 2)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if _, err := conn.Write(hb); err != nil {
				return
			}
		}
	}()
	select {
	case err := <-downs:
		if !errors.Is(err, errCorruptFrame) {
			t.Fatalf("OnPeerDown(5, %v), want errCorruptFrame", err)
		}
	case <-time.After(2 * readDeadline):
		t.Fatalf("reader still waiting for the body %v after its header", 2*readDeadline)
	}
	if n := rx.Stats().CorruptFrames; n != 1 {
		t.Errorf("CorruptFrames = %d, want 1", n)
	}
}

// TestPeerDeathVsCleanCloseObservability: an EOF without a preceding
// goodbye frame (peer process died) must be reported with a diagnosis,
// while an orderly Node.Close — which announces itself with a goodbye —
// is a clean end.
func TestPeerDeathVsCleanCloseObservability(t *testing.T) {
	type down struct {
		peer int
		err  error
	}
	downs := make(chan down, 4)
	rx, err := ListenConfig(1, "127.0.0.1:0", func(Message) {}, Config{
		OnPeerDown: func(peer int, e error) { downs <- down{peer, e} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	next := func(what string) down {
		t.Helper()
		select {
		case d := <-downs:
			return d
		case <-time.After(3 * time.Second):
			t.Fatalf("%s never reported", what)
		}
		return down{}
	}

	// Orderly close: a real node dials, sends, closes.
	tx, err := Listen(0, "127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Dial(1, rx.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(1, Message{Kind: KindAck, Iter: 1}); err != nil {
		t.Fatal(err)
	}
	tx.Close()
	if d := next("orderly close"); d.peer != 0 || d.err != nil {
		t.Fatalf("orderly close reported as OnPeerDown(%d, %v), want (0, nil)", d.peer, d.err)
	}

	// Peer death: handshake succeeds, then the socket dies with no
	// goodbye (what os.Exit or a crash produces).
	conn, err := net.Dial("tcp", rx.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(appendFrame(nil, frameHeader{kind: frameHello, codec: compress.None, from: 7}, nil)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, make([]byte, headerLen+crcLen)); err != nil {
		t.Fatalf("no hello-ack: %v", err)
	}
	conn.Close()
	if d := next("peer death"); d.peer != 7 || d.err == nil || !strings.Contains(d.err.Error(), "without goodbye") {
		t.Errorf("peer death reported as OnPeerDown(%d, %v)", d.peer, d.err)
	}
	if n := rx.Stats().ReadErrors; n != 1 {
		t.Errorf("ReadErrors = %d, want 1 (the death, not the orderly close)", n)
	}
}

// TestConnectionPinnedToHelloSender: data frames claiming a sender id
// other than the hello's must drop the connection — otherwise a
// hostile peer could grow per-sender receive state (delta replicas)
// with fabricated ids.
func TestConnectionPinnedToHelloSender(t *testing.T) {
	errCh := make(chan error, 4)
	var mu sync.Mutex
	var got []Message
	rx, err := ListenConfig(1, "127.0.0.1:0", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}, Config{OnPeerDown: func(_ int, e error) { errCh <- e }})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	conn, err := net.Dial("tcp", rx.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendFrame(nil, frameHeader{kind: frameHello, codec: compress.None, from: 9}, nil)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, make([]byte, headerLen+crcLen)); err != nil {
		t.Fatalf("no hello-ack: %v", err)
	}
	// Matching sender passes, mismatched sender kills the connection.
	if _, err := conn.Write(appendFrame(nil, frameHeader{kind: frameToken, from: 9, iter: 1, count: 1}, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(appendFrame(nil, frameHeader{kind: frameToken, from: 8, iter: 2, count: 1}, nil)); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-errCh:
		if !strings.Contains(e.Error(), "pinned to sender") {
			t.Errorf("unexpected diagnosis: %v", e)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("mismatched sender never reported")
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0].From != 9 || got[0].Iter != 1 {
		t.Errorf("delivered %v", got[0])
	}
}

// TestStressConcurrentKinds pumps updates (big enough to chunk),
// tokens and ACKs through one real TCP pair from many goroutines at
// once — the -race workhorse for the wire layer. Interleaved control
// frames must never corrupt chunked updates.
func TestStressConcurrentKinds(t *testing.T) {
	_, tx, got := pipe(t, Config{}, Config{Compressor: compress.NewFloat32()})
	const (
		senders    = 4
		perSender  = 30
		updateDim  = 2*maxChunk/4 + 300 // float32 -> 3 chunks
		tokenCount = senders * perSender
	)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			params := make([]float64, updateDim)
			for i := range params {
				params[i] = float64(g)
			}
			for i := 0; i < perSender; i++ {
				if err := tx.Send(1, Message{Kind: KindUpdate, Iter: g*1000 + i, Params: params}); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Send(1, Message{Kind: KindToken, Iter: i, Count: 1}); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Send(1, Message{Kind: KindAck, Iter: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return len(got()) == 3*senders*perSender })
	var updates, tokens, acks int
	for _, m := range got() {
		switch m.Kind {
		case KindUpdate:
			updates++
			g := m.Iter / 1000
			if len(m.Params) != updateDim {
				t.Fatalf("truncated update %v", m)
			}
			for i, v := range m.Params {
				if v != float64(g) {
					t.Fatalf("update %v corrupted at %d: %g", m, i, v)
				}
			}
		case KindToken:
			tokens++
		case KindAck:
			acks++
		}
	}
	if updates != tokenCount || tokens != tokenCount || acks != tokenCount {
		t.Fatalf("got %d updates, %d tokens, %d acks; want %d each", updates, tokens, acks, tokenCount)
	}
}
