package transport

// codec.go — the length-prefixed binary wire format that replaced the
// original gob encoding. Every frame is a fixed 32-byte header plus an
// optional payload; large update payloads are split across several
// frames (chunks) so a multi-megabyte parameter vector never
// head-of-line-blocks the token/ACK frames that gate protocol
// progress. See DESIGN.md §2 for the full layout and the handshake.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"hop/internal/compress"
)

const (
	// magic opens every frame: "HOP" plus the format version byte.
	// Bumping the version makes old and new nodes refuse each other at
	// the handshake instead of mis-parsing frames. Version 2 redefined
	// TopK update payloads from absolute sparse vectors to
	// error-feedback delta streams (compress/delta.go); a v1 peer would
	// mis-aggregate them, so the formats must not interoperate.
	// Version 3 appended the CRC32-C trailer to every frame and added
	// the heartbeat control kind; a v2 peer would read the trailer as
	// the next frame's magic and desync. Version 4 gap-codes the index
	// of each TopK pair as a varint (compress.go); a v3 peer would read
	// the varint and the value as a uint32 index.
	magic = "HOP\x04"

	headerLen = 32

	// crcLen is the CRC32-C (Castagnoli) trailer appended after the
	// payload of every frame, covering header + payload. A flipped bit
	// anywhere in the frame — including the kind byte, so corruption
	// can never forge a goodbye or shrink a payload undetected — fails
	// the check and drops the connection, which recovers via redial
	// (stateful TopK streams resync through the dense warm-start frame
	// a fresh connection always starts with).
	crcLen = 4

	// maxChunk is the largest per-frame payload: the writer splits
	// updates at it and the reader rejects a header claiming more before
	// reading on. 64 KiB keeps the worst-case control-frame latency
	// behind a chunk to one socket write, and lets every frame be parsed
	// in place from the read buffer.
	maxChunk = 64 << 10

	// maxPendingBytes bounds the payload bytes a connection's partial
	// update may buffer: without it a hostile peer could claim
	// 65 535 chunks of maxChunk each.
	maxPendingBytes = 256 << 20
)

// frameKind discriminates wire frames. It is a superset of the public
// Kind: the handshake kinds never surface to handlers.
type frameKind uint8

const (
	frameUpdate frameKind = iota
	frameToken
	frameAck
	frameHello
	frameHelloAck
	// frameGoodbye announces an orderly shutdown: Node.Close sends it
	// (best effort) before closing each outgoing connection, so the
	// receiver can tell a clean departure from a peer dying mid-run —
	// an EOF *without* a preceding goodbye is reported as a read error.
	frameGoodbye
	// frameHeartbeat keeps an idle connection audibly alive: the
	// heartbeat loop sends one on any connection that has written
	// nothing for half the heartbeat interval (Config.Liveness), so a
	// receiver with a read deadline can tell a quiet healthy peer from
	// a partitioned or hung one. Heartbeats surface to handlers as
	// KindHeartbeat.
	frameHeartbeat
)

// castagnoli is the CRC32-C polynomial table shared by every frame
// encode/decode (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorruptFrame marks a frame whose CRC32-C trailer did not match
// its bytes, whose claimed length exceeds maxChunk, or whose body did
// not arrive within readDeadline of its header (silenceReader): line
// noise, a hostile peer, or the chaos injector. The connection is torn
// down and the event counted in Stats.CorruptFrames.
var errCorruptFrame = errors.New("corrupt frame")

// frameHeader is the fixed prefix of every frame:
//
//	off size field
//	 0   4   magic "HOP" + version 0x04
//	 4   1   frame kind
//	 5   1   payload codec (compress.Kind)
//	 6   2   chunk index
//	 8   2   chunk count (>=1 on update frames)
//	10   2   reserved, must be zero
//	12   4   from: sender worker id
//	16   4   iter (int32)
//	20   4   count (int32): token grant count
//	24   4   seq: per-peer message sequence, keys chunk reassembly
//	28   4   payload length in bytes
//
// followed by the payload and a 4-byte CRC32-C trailer over header +
// payload. All integers are little-endian. Handshake frames reuse the
// codec byte to carry the proposed (hello) or accepted (hello-ack)
// codec.
type frameHeader struct {
	kind       frameKind
	codec      compress.Kind
	chunkIndex uint16
	chunkCount uint16
	from       uint32
	iter       int32
	count      int32
	seq        uint32
	payloadLen uint32
}

// putHeader encodes h, payloadLen included, into b.
func putHeader(b *[headerLen]byte, h frameHeader) {
	copy(b[0:4], magic)
	b[4] = byte(h.kind)
	b[5] = byte(h.codec)
	binary.LittleEndian.PutUint16(b[6:], h.chunkIndex)
	binary.LittleEndian.PutUint16(b[8:], h.chunkCount)
	b[10], b[11] = 0, 0
	binary.LittleEndian.PutUint32(b[12:], h.from)
	binary.LittleEndian.PutUint32(b[16:], uint32(h.iter))
	binary.LittleEndian.PutUint32(b[20:], uint32(h.count))
	binary.LittleEndian.PutUint32(b[24:], h.seq)
	binary.LittleEndian.PutUint32(b[28:], h.payloadLen)
}

// frameCRC is the trailer value of a frame: CRC32-C over the encoded
// header, continued over the payload.
func frameCRC(header, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(header, castagnoli), castagnoli, payload)
}

// appendFrame appends the encoded header, payload and CRC32-C trailer
// to dst.
func appendFrame(dst []byte, h frameHeader, payload []byte) []byte {
	h.payloadLen = uint32(len(payload))
	var b [headerLen]byte
	putHeader(&b, h)
	start := len(dst)
	dst = append(append(dst, b[:]...), payload...)
	// Summed over dst, not b: handing b to crc32 would move it to the heap.
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// parseHeader decodes and validates a frame header.
func parseHeader(b []byte) (frameHeader, error) {
	if len(b) < headerLen {
		return frameHeader{}, fmt.Errorf("transport: short header (%d bytes)", len(b))
	}
	if string(b[0:4]) != magic {
		return frameHeader{}, fmt.Errorf("transport: bad magic %q (version mismatch or not a hop peer): %w", b[0:4], errProtocol)
	}
	h := frameHeader{
		kind:       frameKind(b[4]),
		codec:      compress.Kind(b[5]),
		chunkIndex: binary.LittleEndian.Uint16(b[6:]),
		chunkCount: binary.LittleEndian.Uint16(b[8:]),
		from:       binary.LittleEndian.Uint32(b[12:]),
		iter:       int32(binary.LittleEndian.Uint32(b[16:])),
		count:      int32(binary.LittleEndian.Uint32(b[20:])),
		seq:        binary.LittleEndian.Uint32(b[24:]),
		payloadLen: binary.LittleEndian.Uint32(b[28:]),
	}
	if b[10] != 0 || b[11] != 0 {
		return frameHeader{}, fmt.Errorf("transport: reserved header bytes set")
	}
	if h.kind > frameHeartbeat {
		return frameHeader{}, fmt.Errorf("transport: unknown frame kind %d", h.kind)
	}
	if h.kind == frameUpdate {
		if h.chunkCount < 1 {
			return frameHeader{}, fmt.Errorf("transport: update frame with zero chunk count")
		}
		if h.chunkIndex >= h.chunkCount {
			return frameHeader{}, fmt.Errorf("transport: chunk index %d out of range (count %d)", h.chunkIndex, h.chunkCount)
		}
		if h.chunkCount > 1 && h.payloadLen == 0 {
			return frameHeader{}, fmt.Errorf("transport: empty chunk in %d-chunk message", h.chunkCount)
		}
	}
	return h, nil
}

// framePrefix checks the two header fields that have to be believed
// before the CRC can be: the magic (a version mismatch is a protocol
// error, not corruption) and the payload length, bounds-checked before
// it sizes a read or an allocation. It returns the payload length.
func framePrefix(hb []byte) (int, error) {
	if string(hb[0:4]) != magic {
		return 0, fmt.Errorf("transport: bad magic %q (version mismatch or not a hop peer): %w", hb[0:4], errProtocol)
	}
	plen := binary.LittleEndian.Uint32(hb[28:])
	if plen > maxChunk {
		return 0, fmt.Errorf("transport: frame payload %d exceeds limit %d: %w", plen, maxChunk, errCorruptFrame)
	}
	return int(plen), nil
}

// verifyFrame checks a whole frame's CRC32-C trailer before any other
// field of the header is trusted — a bit-flipped kind byte can no more
// forge a goodbye than a bit-flipped payload can reach the aggregation
// — and then parses the header.
func verifyFrame(hb, payload, trailer []byte) (frameHeader, []byte, error) {
	want := binary.LittleEndian.Uint32(trailer)
	if got := frameCRC(hb, payload); got != want {
		return frameHeader{}, nil, fmt.Errorf("transport: frame CRC %08x, trailer says %08x: %w", got, want, errCorruptFrame)
	}
	h, err := parseHeader(hb)
	if err != nil {
		return frameHeader{}, nil, err
	}
	if len(payload) == 0 {
		payload = nil
	}
	return h, payload, nil
}

// readFrame reads one full frame from r into fresh memory and verifies
// it (framePrefix, verifyFrame). It consumes exactly the frame's bytes,
// which is what the dialer's handshake needs of an unbuffered
// connection.
func readFrame(r io.Reader) (frameHeader, []byte, error) {
	hb := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hb); err != nil {
		return frameHeader{}, nil, err
	}
	plen, err := framePrefix(hb)
	if err != nil {
		return frameHeader{}, nil, err
	}
	body := make([]byte, plen+crcLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return frameHeader{}, nil, err
	}
	return verifyFrame(hb, body[:plen], body[plen:])
}

// frameReader is the per-connection read path: frames are parsed,
// CRC-checked and handed out in place from a read buffer that holds one
// maximal frame, so a payload is touched once on its way from the
// socket to the decoded vector. A returned payload is valid until the
// next call.
type frameReader struct {
	br      *bufio.Reader
	held    int            // bytes of the frame handed out in place, discarded by the next call
	silence *silenceReader // br's source under Config.Liveness, told when a frame body is due
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, headerLen+maxChunk+crcLen)}
}

// next returns the next verified frame. Errors are readFrame's: io.EOF
// only at a frame boundary, io.ErrUnexpectedEOF inside a frame, and
// errCorruptFrame for a body that is overdue (silenceReader).
func (fr *frameReader) next() (frameHeader, []byte, error) {
	if fr.held > 0 {
		fr.br.Discard(fr.held) // buffered by the Peek that handed it out: cannot fail
		fr.held = 0
	}
	hb, err := fr.br.Peek(headerLen)
	if err != nil {
		if err == io.EOF && len(hb) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return frameHeader{}, nil, err
	}
	plen, err := framePrefix(hb)
	if err != nil {
		return frameHeader{}, nil, err
	}
	total := headerLen + plen + crcLen
	timed := fr.silence != nil && fr.br.Buffered() < total
	if timed {
		fr.silence.frameStart = time.Now()
	}
	frame, err := fr.br.Peek(total)
	if timed {
		fr.silence.frameStart = time.Time{}
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frameHeader{}, nil, err
	}
	fr.held = total
	return verifyFrame(frame[:headerLen], frame[headerLen:headerLen+plen], frame[headerLen+plen:])
}

// reassembler holds the one chunked update a connection can have in
// flight. The sender's one-update-in-flight barrier (DESIGN.md §9.1)
// writes an update's chunks in order, with no other update between
// them (control frames may interleave), so a partial update is its
// first chunk's header, the index of the chunk it waits for, and one
// growing buffer.
type reassembler struct {
	header frameHeader // first chunk's header (tags + codec); valid while open
	next   uint16      // index of the chunk the open update waits for
	open   bool
	buf    []byte // payload so far, reused from update to update
}

// add folds one update frame in. It returns the completed (header,
// payload) when the final chunk of an update arrives, and an error if
// the stream violates the chunking contract: a repeated chunk, chunks
// of one update disagreeing on their tags, or a partial larger than
// maxPendingBytes. A chunk that does not come next can only mean the
// chaos injector dropped its predecessor (it never reorders or
// duplicates chunks): that update is lost, as a dropped single-frame
// update is, and its remaining chunks are ignored. A single-chunk
// update is returned aliasing the caller's payload (valid until its
// next frame read), a multi-chunk one aliasing the reassembler's buffer
// (valid until the next add).
func (ra *reassembler) add(h frameHeader, payload []byte) (frameHeader, []byte, bool, error) {
	if h.chunkCount == 1 {
		return h, payload, true, nil
	}
	if !ra.open || h.seq != ra.header.seq {
		if h.chunkIndex != 0 {
			return frameHeader{}, nil, false, nil // its update lost a chunk
		}
		ra.header, ra.next, ra.open, ra.buf = h, 0, true, ra.buf[:0]
	}
	if h.chunkCount != ra.header.chunkCount || h.codec != ra.header.codec ||
		h.from != ra.header.from || h.iter != ra.header.iter {
		return frameHeader{}, nil, false, fmt.Errorf("transport: inconsistent chunk headers for seq %d", h.seq)
	}
	switch {
	case h.chunkIndex < ra.next:
		return frameHeader{}, nil, false, fmt.Errorf("transport: duplicate chunk %d for seq %d", h.chunkIndex, h.seq)
	case h.chunkIndex > ra.next:
		ra.open = false // chunk ra.next was lost
		return frameHeader{}, nil, false, nil
	}
	if len(ra.buf)+len(payload) > maxPendingBytes {
		return frameHeader{}, nil, false, fmt.Errorf("transport: %d bytes of incomplete chunked update pending", len(ra.buf))
	}
	ra.buf = append(ra.buf, payload...)
	ra.next++
	if ra.next < h.chunkCount {
		return frameHeader{}, nil, false, nil
	}
	ra.open = false
	return ra.header, ra.buf, true, nil
}
