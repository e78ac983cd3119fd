// Package compress implements the pluggable gradient/parameter
// compressors of the live wire layer (see DESIGN.md §2.3). A
// Compressor turns a dense []float64 update into a compact byte
// payload; the frame header carries the codec kind, so a receiver never
// needs the sender's configuration to decompress.
//
// Three codecs are provided:
//
//   - None: raw little-endian float64s, lossless (8 bytes/coord).
//   - Float32: cast-down to little-endian float32s (4 bytes/coord),
//     lossy only by float32 rounding — the "half-width" codec common
//     in decentralized-training systems. Decode reverses either.
//   - TopK: magnitude sparsification, only ever as a *delta stream
//     with error feedback* (delta.go): each frame carries the k
//     largest-|·| coordinates of the difference between the state and
//     a per-connection replica, as (gap varint, float32 value) pairs,
//     and dropped mass stays in that difference and is re-sent, so the
//     receiver's DeltaDecoder always reconstructs full dense state.
//
// The simulator never touches this package: simulated runs model
// payload *size* only, scaled by scenario.WireRatio (DESIGN.md §4.2).
package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies a codec on the wire (one byte in the frame header).
type Kind uint8

// Wire codec kinds. The numeric values are part of the wire format;
// never renumber.
const (
	None Kind = iota
	Float32
	TopK
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Float32:
		return "float32"
	case TopK:
		return "topk"
	}
	return fmt.Sprintf("codec(%d)", uint8(k))
}

// Supported reports whether k is one of this package's codecs. The
// transport refuses any other kind, in a configuration and in a hello.
func Supported(k Kind) bool {
	switch k {
	case None, Float32, TopK:
		return true
	}
	return false
}

// Compressor encodes dense update vectors into wire payloads. None and
// Float32 are stateless and safe for concurrent use. TopK's is a
// *DeltaEncoder: a user of the wire takes one stream per connection
// from NewStream and serializes its Compress calls.
type Compressor interface {
	// Kind is the byte written into every frame header so the
	// receiver can decode without out-of-band configuration.
	Kind() Kind
	// Compress appends the encoded form of src to dst and returns the
	// extended slice (append-style, so callers can reuse buffers).
	Compress(dst []byte, src []float64) []byte
}

// Spec is a parsed compressor selection: a kind plus the TopK keep
// ratio. The zero Spec means None — configs that never mention
// compression get the lossless wire format.
type Spec struct {
	Kind Kind
	// Ratio is the TopK keep fraction in (0, 1]; ignored by other
	// kinds. Zero means the DefaultTopKRatio.
	Ratio float64
}

// DefaultTopKRatio is the keep fraction used when a TopK spec does
// not state one (the 10% operating point of the wire benchmarks).
const DefaultTopKRatio = 0.1

// MinTopKRatio is the smallest accepted keep fraction. It exists for
// the decoder, not the statistics: an honest encoder with ratio r
// emits k ≥ r·n pairs, so bounding r ≥ 1/maxTopKExpansion lets a
// DeltaDecoder reject any frame claiming a vector more than
// maxTopKExpansion times larger than the pairs it actually carries — a
// tiny frame can no longer demand a multi-hundred-MiB allocation.
const MinTopKRatio = 1.0 / maxTopKExpansion

// maxTopKExpansion bounds n/k on decode; see MinTopKRatio.
const maxTopKExpansion = 1024

// ParseSpec parses a command-line compressor spec: "none", "float32",
// "topk" or "topk:<ratio>" (e.g. "topk:0.1").
func ParseSpec(s string) (Spec, error) {
	name, arg, hasArg := strings.Cut(strings.TrimSpace(strings.ToLower(s)), ":")
	switch name {
	case "", "none":
		return Spec{Kind: None}, nil
	case "float32", "f32":
		return Spec{Kind: Float32}, nil
	case "topk":
		sp := Spec{Kind: TopK, Ratio: DefaultTopKRatio}
		if hasArg {
			r, err := strconv.ParseFloat(arg, 64)
			if err != nil || r < MinTopKRatio || r > 1 {
				return Spec{}, fmt.Errorf("compress: bad topk ratio %q (want %g <= r <= 1)", arg, MinTopKRatio)
			}
			sp.Ratio = r
		}
		return sp, nil
	}
	return Spec{}, fmt.Errorf("compress: unknown codec %q (want none | float32 | topk[:ratio])", s)
}

// Validate reports whether New can instantiate the Spec: a supported
// kind and, for TopK, a ratio that is either zero (meaning
// DefaultTopKRatio) or in [MinTopKRatio, 1]. Configuration layers
// (core.Config, live.WorkerConfig) call this so a bad ratio is an
// error everywhere, never a silent adjustment.
func (s Spec) Validate() error {
	if !Supported(s.Kind) {
		return fmt.Errorf("compress: unsupported codec %v", s.Kind)
	}
	if s.Kind == TopK && s.Ratio != 0 && (s.Ratio < MinTopKRatio || s.Ratio > 1) {
		return fmt.Errorf("compress: topk ratio %g out of [%g,1] (0 means the default %g)", s.Ratio, MinTopKRatio, DefaultTopKRatio)
	}
	return nil
}

func (s Spec) String() string {
	if s.Kind == TopK {
		r := s.Ratio
		if r == 0 {
			r = DefaultTopKRatio
		}
		return fmt.Sprintf("topk:%g", r)
	}
	return s.Kind.String()
}

// New builds the Compressor a Spec describes; TopK's is a DeltaEncoder.
// It panics (via NewDeltaEncoder) on a ratio outside [MinTopKRatio, 1]
// — the same values Validate rejects — rather than silently adjusting
// what goes on the wire; call Validate first on untrusted
// configuration.
func (s Spec) New() Compressor {
	switch s.Kind {
	case Float32:
		return float32Codec{}
	case TopK:
		r := s.Ratio
		if r == 0 {
			r = DefaultTopKRatio
		}
		return NewDeltaEncoder(r)
	default:
		return noneCodec{}
	}
}

// NewNone returns the lossless raw-float64 codec.
func NewNone() Compressor { return noneCodec{} }

// NewFloat32 returns the float32 cast-down codec.
func NewFloat32() Compressor { return float32Codec{} }

// Decode reverses Compress for None and Float32. It never panics on
// malformed payloads; it returns an error instead (wire input is
// untrusted). A TopK payload is a delta against a replica only a
// DeltaDecoder holds, so Decode refuses it.
func Decode(k Kind, payload []byte) ([]float64, error) {
	return DecodeInto(nil, k, payload)
}

// DecodeInto is Decode writing into dst's capacity when it suffices
// (allocating only otherwise), so a receive loop that recycles buffers
// runs allocation-free. It returns the decoded vector, which aliases
// dst whenever cap(dst) was large enough; dst's previous contents are
// ignored. On error dst is unchanged in length but its contents are
// unspecified.
func DecodeInto(dst []float64, k Kind, payload []byte) ([]float64, error) {
	switch k {
	case None:
		if len(payload)%8 != 0 {
			return nil, fmt.Errorf("compress: none payload length %d not a multiple of 8", len(payload))
		}
		out := sizeVec(dst, len(payload)/8)
		if littleEndian {
			copy(float64Bytes(out), payload)
			return out, nil
		}
		o := out // filled four at a time, check-free (see extend)
		for ; len(o) >= 4 && len(payload) >= 32; o, payload = o[4:], payload[32:] {
			o[0] = math.Float64frombits(binary.LittleEndian.Uint64(payload[0:8]))
			o[1] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8:16]))
			o[2] = math.Float64frombits(binary.LittleEndian.Uint64(payload[16:24]))
			o[3] = math.Float64frombits(binary.LittleEndian.Uint64(payload[24:32]))
		}
		for ; len(o) > 0 && len(payload) >= 8; o, payload = o[1:], payload[8:] {
			o[0] = math.Float64frombits(binary.LittleEndian.Uint64(payload[:8]))
		}
		return out, nil
	case Float32:
		if len(payload)%4 != 0 {
			return nil, fmt.Errorf("compress: float32 payload length %d not a multiple of 4", len(payload))
		}
		out := sizeVec(dst, len(payload)/4)
		o := out
		for ; len(o) >= 4 && len(payload) >= 16; o, payload = o[4:], payload[16:] {
			o[0] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[0:4])))
			o[1] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[4:8])))
			o[2] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[8:12])))
			o[3] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[12:16])))
		}
		for ; len(o) > 0 && len(payload) >= 4; o, payload = o[1:], payload[4:] {
			o[0] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[:4])))
		}
		return out, nil
	case TopK:
		return nil, fmt.Errorf("compress: a topk payload is a stream delta: decode it with a DeltaDecoder")
	}
	return nil, fmt.Errorf("compress: unsupported codec %v", k)
}

// sizeVec returns a length-n vector reusing dst's capacity when
// possible; contents are unspecified.
func sizeVec(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// --- None -------------------------------------------------------------

type noneCodec struct{}

func (noneCodec) Kind() Kind { return None }

func (noneCodec) Compress(dst []byte, src []float64) []byte {
	dst, out := extend(dst, 8*len(src))
	if littleEndian {
		copy(out, float64Bytes(src))
		return dst
	}
	for ; len(src) >= 4 && len(out) >= 32; src, out = src[4:], out[32:] {
		binary.LittleEndian.PutUint64(out[0:8], math.Float64bits(src[0]))
		binary.LittleEndian.PutUint64(out[8:16], math.Float64bits(src[1]))
		binary.LittleEndian.PutUint64(out[16:24], math.Float64bits(src[2]))
		binary.LittleEndian.PutUint64(out[24:32], math.Float64bits(src[3]))
	}
	for ; len(src) > 0 && len(out) >= 8; src, out = src[1:], out[8:] {
		binary.LittleEndian.PutUint64(out[:8], math.Float64bits(src[0]))
	}
	return dst
}

// littleEndian reports whether float64s sit in memory in their wire
// byte order, so the None payload is a plain copy of their bytes; a
// big-endian host swaps element by element.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64Bytes views v's memory as its 8·len(v) bytes.
func float64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// extend grows dst by n bytes in one step and returns it with the new
// tail, so an encoder fills a pre-sized destination instead of
// appending element by element. The fill loops' conditions prove every
// index, so their bodies carry no bounds check.
func extend(dst []byte, n int) (whole, tail []byte) {
	whole = slices.Grow(dst, n)[:len(dst)+n]
	return whole, whole[len(dst):]
}

// --- Float32 ----------------------------------------------------------

type float32Codec struct{}

func (float32Codec) Kind() Kind { return Float32 }

func (float32Codec) Compress(dst []byte, src []float64) []byte {
	dst, out := extend(dst, 4*len(src))
	for ; len(src) >= 4 && len(out) >= 16; src, out = src[4:], out[16:] {
		binary.LittleEndian.PutUint32(out[0:4], math.Float32bits(float32(src[0])))
		binary.LittleEndian.PutUint32(out[4:8], math.Float32bits(float32(src[1])))
		binary.LittleEndian.PutUint32(out[8:12], math.Float32bits(float32(src[2])))
		binary.LittleEndian.PutUint32(out[12:16], math.Float32bits(float32(src[3])))
	}
	for ; len(src) > 0 && len(out) >= 4; src, out = src[1:], out[4:] {
		binary.LittleEndian.PutUint32(out[:4], math.Float32bits(float32(src[0])))
	}
	return dst
}

// --- TopK -------------------------------------------------------------

// TopK payload layout (little-endian):
//
//	uint32 n   original vector length
//	uint32 k   number of pairs that follow
//	k × { gap, float32 value }
//
// A pair's gap is index − previous index − 1 (the first measured from
// −1) as a minimal LEB128 varint: one byte below 128, so a pair is
// five bytes at any density above 1/128. Indices are therefore strictly
// increasing by construction; DeltaDecoder rejects a non-minimal varint,
// an index that reaches n, a payload that ends inside a pair and any
// byte left after pair k, which keeps the payload canonical.

// parseTopKHeader validates everything about a TopK payload that can
// be checked before touching the pairs: header presence, k<=n,
// canonical non-zero k, room for k pairs of at least minPairLen bytes,
// and the allocation bounds. It returns (n, k).
func parseTopKHeader(payload []byte) (n, k int, err error) {
	if len(payload) < 8 {
		return 0, 0, fmt.Errorf("compress: topk payload too short (%d bytes)", len(payload))
	}
	n = int(binary.LittleEndian.Uint32(payload))
	k = int(binary.LittleEndian.Uint32(payload[4:]))
	if k > n {
		return 0, 0, fmt.Errorf("compress: topk k=%d exceeds n=%d", k, n)
	}
	if k == 0 && n > 0 {
		// The encoder always keeps >=1 coordinate of a non-empty
		// vector; a zero-k payload is a decompression bomb, not data.
		return 0, 0, fmt.Errorf("compress: topk k=0 for n=%d is not canonical", n)
	}
	if room := (len(payload) - 8) / minPairLen; k > room {
		return 0, 0, fmt.Errorf("compress: topk payload %d bytes cannot hold k=%d pairs", len(payload), k)
	}
	const maxVector = 1 << 26 // 512 MiB of float64s; far beyond any model here
	if n > maxVector {
		return 0, 0, fmt.Errorf("compress: topk n=%d exceeds sanity bound", n)
	}
	// Allocation bound: every supported encoder keeps k >= n/maxTopKExpansion
	// (MinTopKRatio), so a frame claiming more is a decompression bomb —
	// without this, 13 wire bytes (k=1) could demand a 512 MiB vector.
	if n > k*maxTopKExpansion {
		return 0, 0, fmt.Errorf("compress: topk n=%d exceeds %d·k (k=%d)", n, maxTopKExpansion, k)
	}
	return n, k, nil
}

// minPairLen is the shortest pair: a one-byte gap and a float32.
const minPairLen = 5

// maxGapLen is the longest gap varint a DeltaDecoder accepts: four
// bytes carry 28 bits, past the largest n parseTopKHeader admits.
const maxGapLen = 4

// fault is why foldPairs stopped before the end of a payload.
type fault uint8

const (
	faultNone     fault = iota
	faultShort          // the bytes end inside a pair
	faultLong           // a gap varint runs past maxGapLen bytes
	faultPadded         // a gap varint ends in a zero byte: not minimal
	faultRange          // the index reaches n
	faultTrailing       // bytes are left after pair k
)

// err names fault f, met at pair p (0-based) of a payload whose
// header gave n and k. A fault past pair k is a byte after it.
func (f fault) err(p, n, k int) error {
	if p >= k {
		f = faultTrailing
	}
	switch f {
	case faultShort:
		return fmt.Errorf("compress: topk payload ends before pair %d of k=%d is complete", p, k)
	case faultLong:
		return fmt.Errorf("compress: topk pair %d: gap varint longer than %d bytes", p, maxGapLen)
	case faultPadded:
		return fmt.Errorf("compress: topk pair %d: gap varint not minimal", p)
	case faultRange:
		return fmt.Errorf("compress: topk pair %d: index out of range n=%d", p, n)
	case faultTrailing:
		return fmt.Errorf("compress: topk payload has bytes after pair k=%d", k)
	}
	return nil
}

// foldPairs adds the k pairs of a TopK pairs region into dst, of
// length n: dst[i] += v. It decodes each gap varint in place, and at the
// first fault stops with dst partially written and reports which, with
// the number of pairs it had yet to fold (fault.err turns both into the
// error). The loop runs while a pair's worth of bytes is left and counts
// k down, rather than testing k on every pair, which made it about 1.2×
// slower; the count is checked after it, so pairs past the kth are
// folded before the payload is refused. It calls nothing, so its values
// stay in registers: with the error built inside it, the compiler
// spilled the index to the stack on every pair.
//
// Both replicas of a delta stream advance through this one compiled
// loop (DeltaEncoder.Commit and DeltaDecoder.DecodeInto), so they stay
// bit-identical even through NaNs: when both operands of an add are
// NaN the result carries one operand's payload, which one depends on
// the instruction's operand order, and the compiler may order a
// commutative add either way at two separate sites (FuzzDeltaStream's
// NaN seed tells the difference). Hence out of line.
//
//go:noinline
func foldPairs(dst []float64, pairs []byte, n, k int) (fault, int) {
	i := -1
	for len(pairs) >= minPairLen {
		gap := uint(pairs[0])
		if gap >= 0x80 { // the varint continues
			gap &= 0x7f
			for s := uint(7); ; s += 7 {
				pairs = pairs[1:]
				if s >= 7*maxGapLen {
					return faultLong, k
				}
				// Each byte of a gap varint but the last promises a
				// pair's worth of bytes after it.
				if len(pairs) < minPairLen {
					return faultShort, k
				}
				b := pairs[0]
				if b == 0 {
					return faultPadded, k
				}
				gap |= uint(b&0x7f) << s
				if b < 0x80 {
					break
				}
			}
		}
		i += int(gap) + 1
		if uint(i) >= uint(n) {
			return faultRange, k
		}
		v := float64(math.Float32frombits(binary.LittleEndian.Uint32(pairs[1:5])))
		pairs = pairs[5:]
		dst[i] += v
		k--
	}
	if k > 0 {
		return faultShort, k
	}
	if k < 0 || len(pairs) != 0 {
		return faultTrailing, 0
	}
	return faultNone, 0
}
