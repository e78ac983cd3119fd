package compress

// delta.go — the TopK codec. Sparsifying a full parameter vector and
// averaging the zero-filled reconstruction into a model destroys
// training (the dropped 90% of coordinates enter the mean as zeros).
// TopK is therefore only a *delta stream*: each frame carries the top-k
// coordinates of
//
//	delta_t = x_t − ref_t
//
// where ref_t is the sender's replica of what the receiver has
// reconstructed so far; after encoding, ref_{t+1} = ref_t + q_t with
// q_t the float32-rounded transmitted sparse vector. This is the
// x̂-tracking of Koloskova et al.'s CHOCO-SGD, and it is error feedback
// with implicit memory: mass a frame drops stays in x − ref and is
// re-attempted on every later frame, so for a held state the replica
// converges geometrically (TopK removes at least the k largest-|·|
// shares of the remaining error each round) and nothing is ever lost.
// The receiver folds each decoded delta into its replica and hands the
// full dense reconstruction to the protocol. The first frame of a
// stream (and the first after a dimension change) is sent dense
// (k = n) so both replicas start float32-exact.
//
// One DeltaEncoder/DeltaDecoder pair serves one ordered, reliable
// stream (one transport connection). Neither is safe for concurrent
// use; the transport serializes update sends per peer and decodes per
// connection.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// StreamCompressor is implemented by codecs whose encoding is stateful
// per connection. The transport calls NewStream once per dialed peer
// and must serialize Compress calls on the returned instance; stateless
// codecs are shared as-is.
type StreamCompressor interface {
	Compressor
	// NewStream returns a fresh, independent per-connection encoder.
	NewStream() Compressor
}

// StreamCommitter is implemented by stream encoders whose Compress
// only *stages* a frame. The caller must invoke Commit once the frame
// has actually been handed to the reliable stream (all chunks
// written); a failed send is simply never committed, so the encoder
// re-sends the same mass later instead of desyncing from a receiver
// that saw nothing.
type StreamCommitter interface {
	Commit()
}

// DeltaEncoder is the sender half of a TopK delta stream.
type DeltaEncoder struct {
	ratio float64 // the keep fraction, in [MinTopKRatio, 1]
	// ref replicates the receiver's reconstruction (bit-for-bit: both
	// sides accumulate the same float32 values in the same order);
	// delta is scratch for x − ref. The untransmitted mass x − ref is
	// the implicit error-feedback residual.
	ref, delta []float64
	// pending is the staged-but-uncommitted payload (aliasing the
	// caller's buffer, which must stay untouched until Commit);
	// pendingRekey records that it is a warm-start frame.
	pending      []byte
	pendingRekey bool
	// sel carries the previous frame's selection threshold, and the
	// candidate scratch, to the next frame's gather (topk_select.go). It
	// never affects payload bytes.
	sel streamSel
}

// NewDeltaEncoder returns a delta-stream encoder keeping ceil(ratio·n)
// coordinates per frame; ratio must be in [MinTopKRatio, 1].
func NewDeltaEncoder(ratio float64) *DeltaEncoder {
	if ratio < MinTopKRatio || ratio > 1 {
		panic(fmt.Sprintf("compress: topk ratio %g out of [%g,1]", ratio, MinTopKRatio))
	}
	return &DeltaEncoder{ratio: ratio}
}

// NewStream makes the encoder a StreamCompressor: a fresh stream at the
// same keep ratio, sharing no state with this one.
func (e *DeltaEncoder) NewStream() Compressor { return &DeltaEncoder{ratio: e.ratio} }

// keepCount returns how many coordinates of an n-vector a sparse frame
// carries: ceil(ratio·n), floored at 1 for non-empty input.
func (e *DeltaEncoder) keepCount(n int) int {
	if n == 0 {
		return 0
	}
	return min(max(int(math.Ceil(e.ratio*float64(n))), 1), n)
}

// Kind returns TopK: delta frames are ordinary TopK payloads; the
// stream semantics live in the encoder/decoder state.
func (e *DeltaEncoder) Kind() Kind { return TopK }

// Compress appends one delta frame for state x and stages it; the
// replica does not advance until Commit, so a frame the caller fails
// to deliver is simply re-encoded later and no mass is lost. The
// first committed frame (and the first after len(x) changes) re-keys
// the stream and is sent dense. Staging a new frame discards an
// uncommitted one.
func (e *DeltaEncoder) Compress(dst []byte, x []float64) []byte {
	// delta always takes the dimension of *this* frame: an uncommitted
	// staged frame (e.g. a failed re-key to a different dimension) must
	// not leak its length into the next encode.
	if cap(e.delta) < len(x) {
		e.delta = make([]float64, len(x))
	}
	e.delta = e.delta[:len(x)]
	e.pendingRekey = len(e.ref) != len(x)
	start := len(dst)
	if e.pendingRekey {
		// Dense warm start (k = n): replicas begin float32-exact.
		copy(e.delta, x)
		dst = encodeTopK(dst, e.delta, len(e.delta), nil, nil, &e.sel)
	} else {
		// Fused hot path: the selector's gather pass computes
		// delta = x − ref while it collects the candidates above the
		// previous frame's threshold.
		dst = encodeTopK(dst, e.delta, e.keepCount(len(x)), x, e.ref, &e.sel)
	}
	e.pending = dst[start:]
	return dst
}

// StageShared stages a frame encoded by a bit-identical sibling
// stream — one with the same codec spec whose committed frame history
// is exactly this stream's, so its replica (and therefore the frame
// its Compress would produce for the same state) is byte-for-byte
// equal. n is the state dimension the frame was encoded from. Commit
// then folds the payload exactly as a self-encoded frame. The caller
// asserts the sibling property; staging a foreign frame desyncs the
// stream. The payload is aliased, not copied: it must stay untouched
// until Commit (or until the next Stage/Compress discards it).
func (e *DeltaEncoder) StageShared(payload []byte, n int) {
	if cap(e.delta) < n {
		e.delta = make([]float64, n)
	}
	e.delta = e.delta[:n] // Commit reads the staged dimension from delta
	e.pendingRekey = len(e.ref) != n
	e.pending = payload
}

// SharedStager is implemented by stream encoders that can adopt a
// frame produced by a bit-identical sibling stream instead of
// re-encoding it (see DeltaEncoder.StageShared). The transport uses it
// to encode one update payload once per node rather than once per
// peer whose stream state matches.
type SharedStager interface {
	StageShared(payload []byte, n int)
}

// Commit advances the replica by the float32-rounded sparse vector the
// staged frame actually carries, so ref tracks the receiver exactly —
// including the rounding the receiver will see. Call it only once the
// frame is on the wire; a no-op when nothing is staged.
func (e *DeltaEncoder) Commit() {
	payload := e.pending
	if payload == nil {
		return
	}
	e.pending = nil
	if e.pendingRekey {
		e.ref = make([]float64, len(e.delta))
	}
	k := int(binary.LittleEndian.Uint32(payload[4:]))
	if f, _ := foldPairs(e.ref, payload[8:], len(e.ref), k); f != faultNone {
		// The encoder or a sibling stream made this frame: only a bug
		// gets here.
		panic("compress: staged frame has an invalid pair")
	}
}

// DeltaDecoder is the receiver half of a TopK delta stream: it holds
// the replica of the sender's state for one connection.
type DeltaDecoder struct {
	ref []float64
}

// Decode folds one delta payload into the replica and returns a copy
// of the full reconstructed state. A payload whose dimension differs
// from the replica re-keys the stream — and must be dense (k = n),
// because the encoder always warm-starts a re-key densely; a *sparse*
// frame of the wrong dimension is corruption, and accepting it would
// wipe the replica and hand mostly-zero state to the protocol. The
// fold is O(k) — the sparse pairs are applied directly, never
// materialized as a dense delta. On a malformed payload the replica
// may be partially advanced; the caller must treat the error as fatal
// for the stream (the transport drops the connection).
func (d *DeltaDecoder) Decode(payload []byte) ([]float64, error) {
	return d.DecodeInto(nil, payload)
}

// DecodeInto is Decode writing the reconstruction into dst's capacity
// when it suffices (allocating only otherwise), so a receive loop that
// recycles buffers folds frames allocation-free. The returned slice
// aliases dst whenever cap(dst) was large enough; dst's previous
// contents are ignored. Replica semantics — including the
// partially-advanced-on-error caveat above — are identical to Decode.
func (d *DeltaDecoder) DecodeInto(dst []float64, payload []byte) ([]float64, error) {
	n, k, err := parseTopKHeader(payload)
	if err != nil {
		return nil, err
	}
	if len(d.ref) != n {
		if k != n {
			return nil, fmt.Errorf("compress: topk re-key frame (replica dim %d -> %d) must be dense, got k=%d", len(d.ref), n, k)
		}
		d.ref = make([]float64, n)
	}
	if f, left := foldPairs(d.ref, payload[8:], n, k); f != faultNone {
		return nil, f.err(k-left, n, k)
	}
	out := sizeVec(dst, n)
	copy(out, d.ref)
	return out, nil
}
