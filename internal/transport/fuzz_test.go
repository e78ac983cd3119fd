package transport

// fuzz_test.go — hostile-bytes fuzzing of the frame decode path.
// FuzzFrameDecode drives the connection read path — the in-place
// frameReader, checked frame by frame against the copying readFrame —
// plus chunk reassembly over arbitrary byte streams: truncated frames, bit-flipped headers,
// payloads, and CRC trailers, oversized claimed lengths. The decode
// path must reject every malformed stream with an error — never panic,
// never allocate unboundedly, and never accept a frame whose CRC does
// not match its bytes. CI runs a short -fuzz smoke on top of the
// seeded corpus below.

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"hop/internal/compress"
)

// healthySeeds counts the undamaged seeds that open fuzzSeedFrames.
const healthySeeds = 7

// fuzzSeedFrames builds a representative corpus: control frames (the
// retired ACK kind among them), a single-chunk update, a multi-chunk update pair, a maximal frame, and
// deliberately damaged variants.
func fuzzSeedFrames() [][]byte {
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }

	add(appendFrame(nil, frameHeader{kind: 2, from: 2, iter: 11}, nil))
	add(appendFrame(nil, frameHeader{kind: frameToken, from: 1, iter: 3}, nil))
	add(appendFrame(nil, frameHeader{kind: frameHeartbeat, from: 4}, nil))
	add(appendFrame(nil, frameHeader{kind: frameGoodbye, from: 0}, nil))
	upd := appendFrame(nil, frameHeader{
		kind: frameUpdate, codec: compress.None, chunkCount: 1, from: 1, iter: 7,
	}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	add(upd)

	// Two frames back-to-back: chunk 0 and 1 of one message.
	multi := appendFrame(nil, frameHeader{
		kind: frameUpdate, codec: compress.None, chunkIndex: 0, chunkCount: 2,
		from: 1, iter: 9, seq: 42,
	}, []byte{1, 2, 3, 4})
	multi = appendFrame(multi, frameHeader{
		kind: frameUpdate, codec: compress.None, chunkIndex: 1, chunkCount: 2,
		from: 1, iter: 9, seq: 42,
	}, []byte{5, 6, 7, 8})
	add(multi)

	// The largest frame the reader admits.
	add(appendFrame(nil, frameHeader{
		kind: frameUpdate, codec: compress.None, chunkCount: 1, from: 1, iter: 10,
	}, make([]byte, maxChunk)))

	// Damaged variants: truncation, bit flips in header / payload /
	// trailer, a claimed payload length one past maxChunk.
	add(upd[:headerLen-3])
	flip := func(src []byte, bit int) []byte {
		b := append([]byte(nil), src...)
		b[bit/8] ^= 1 << (bit % 8)
		return b
	}
	add(flip(upd, 37))               // header
	add(flip(upd, (headerLen+2)*8))  // payload
	add(flip(upd, (len(upd)-2)*8+4)) // CRC trailer
	huge := append([]byte(nil), upd...)
	binary.LittleEndian.PutUint32(huge[28:], maxChunk+1)
	add(huge)
	return seeds
}

// FuzzFrameDecode feeds an arbitrary byte stream through the in-place
// frame reader and the reassembler until the stream errors or runs
// dry. The copying reader walks the same bytes alongside: the two must
// accept and reject the same frames and agree on every accepted one.
func FuzzFrameDecode(f *testing.F) {
	for _, s := range fuzzSeedFrames() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := newFrameReader(bytes.NewReader(stream))
		ref := bytes.NewReader(stream)
		var ra reassembler
		for {
			h, payload, err := fr.next()
			rh, rpayload, rerr := readFrame(ref)
			if (err == nil) != (rerr == nil) {
				t.Fatalf("in-place reader says %v, copying reader %v", err, rerr)
			}
			if err != nil {
				return // rejection is the expected outcome for damage
			}
			if h != rh || !bytes.Equal(payload, rpayload) {
				t.Fatalf("in-place reader decoded %+v %x, copying reader %+v %x", h, payload, rh, rpayload)
			}
			// An accepted frame's bytes round-trip: CRC held, so the
			// header fields must re-encode identically.
			if h.kind == frameUpdate {
				if _, _, _, err := ra.add(h, payload); err != nil {
					return // chunk-contract violation ends the stream
				}
			}
		}
	})
}

func TestFuzzSeedsDecode(t *testing.T) {
	// The healthy seeds must decode cleanly end-to-end (guards the
	// corpus itself against rot when the wire format changes).
	for i, s := range fuzzSeedFrames()[:healthySeeds] {
		fr := newFrameReader(bytes.NewReader(s))
		var ra reassembler
		for frames := 0; ; frames++ {
			h, payload, err := fr.next()
			if err == io.EOF && frames > 0 {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
			if h.kind == frameUpdate {
				if _, _, _, err := ra.add(h, payload); err != nil {
					t.Fatalf("seed %d reassembly: %v", i, err)
				}
			}
		}
	}
}
