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
//     a per-connection replica, each packed with its index gap into
//     one word, and dropped mass stays in that difference and is
//     re-sent, so the receiver's DeltaDecoder always reconstructs full
//     dense state.
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
//	uint32 n     original vector length
//	uint32 k     number of pairs that follow
//	uint8  base  the frame's base exponent
//	k × pair
//
// Every kept value sits just above one selection threshold, so nearly
// all of a frame's float32 exponents are within two of the smallest;
// base is the smallest non-zero exponent field among the frame's
// values (0 when every value has a zero field: zeros and subnormals;
// an empty frame's base is 0 too). A pair is one uint32 word:
//
//	bits  0–22  the float32 mantissa
//	bits 23–24  the exponent's offset from base
//	bits 25–30  the gap: index − previous index − 1, the first from −1
//	bit     31  the float32 sign
//
// so a narrow pair is (f − base<<23) | gap<<25 of the value's bits f,
// and folds back as (w & 0x81ffffff) + base<<23. Two escapes keep the
// layout lossless: offset field 3 means the value's exponent byte
// follows the word (an exponent at base+3 or beyond, NaN or ±Inf among
// finite values, a zero among normals), and gap field 63 means the
// minimal LEB128 varint of gap − 63 follows, after the exponent byte
// when both apply. A pair is four bytes at any density above 1/64 when
// its exponent is within two of base.
//
// Indices are strictly increasing by construction, and DeltaDecoder
// refuses everything the encoder cannot produce — a base no pair's
// exponent equals or one above a non-zero exponent, an escaped exponent
// the word could carry, a base plus offset past 255, a non-minimal or
// overlong gap extension, an index that reaches n, a payload that ends
// inside a pair and any byte left after pair k — which keeps the
// payload canonical.

// topkHeaderLen is the length of a TopK payload's header: n, k, base.
const topkHeaderLen = 9

// parseTopKHeader validates everything about a TopK payload that can
// be checked before touching the pairs: header presence, k<=n,
// canonical non-zero k, room for k pairs of at least minPairLen bytes,
// and the allocation bounds. It returns (n, k, base).
func parseTopKHeader(payload []byte) (n, k int, base uint8, err error) {
	if len(payload) < topkHeaderLen {
		return 0, 0, 0, fmt.Errorf("compress: topk payload too short (%d bytes)", len(payload))
	}
	n = int(binary.LittleEndian.Uint32(payload))
	k = int(binary.LittleEndian.Uint32(payload[4:]))
	base = payload[8]
	if k > n {
		return 0, 0, 0, fmt.Errorf("compress: topk k=%d exceeds n=%d", k, n)
	}
	if k == 0 && n > 0 {
		// The encoder always keeps >=1 coordinate of a non-empty
		// vector; a zero-k payload is a decompression bomb, not data.
		return 0, 0, 0, fmt.Errorf("compress: topk k=0 for n=%d is not canonical", n)
	}
	if k == 0 && base != 0 {
		return 0, 0, 0, faultNoBase.err(0, n, k, base)
	}
	if room := (len(payload) - topkHeaderLen) / minPairLen; k > room {
		return 0, 0, 0, fmt.Errorf("compress: topk payload %d bytes cannot hold k=%d pairs", len(payload), k)
	}
	const maxVector = 1 << 26 // 512 MiB of float64s; far beyond any model here
	if n > maxVector {
		return 0, 0, 0, fmt.Errorf("compress: topk n=%d exceeds sanity bound", n)
	}
	// Allocation bound: every supported encoder keeps k >= n/maxTopKExpansion
	// (MinTopKRatio), so a frame claiming more is a decompression bomb —
	// without this, 13 wire bytes (k=1) could demand a 512 MiB vector.
	if n > k*maxTopKExpansion {
		return 0, 0, 0, fmt.Errorf("compress: topk n=%d exceeds %d·k (k=%d)", n, maxTopKExpansion, k)
	}
	return n, k, base, nil
}

// The pair word's fields.
const (
	minPairLen = 4       // the shortest pair: one word
	offField   = 3 << 23 // the exponent's offset from base
	gapShift   = 25
	gapField   = 63 << gapShift // the gap
	expField   = 0xff << 23     // a float32's exponent
	wideOff    = 3              // offset field value: the exponent byte follows
	wideGap    = 63             // gap field value: the varint of gap − 63 follows
	maxNarrow  = 2              // the largest offset a word carries
)

// maxGapLen is the longest gap extension a DeltaDecoder accepts: four
// bytes carry 28 bits, past the largest n parseTopKHeader admits.
const maxGapLen = 4

// fault is why foldPairs stopped before the end of a payload.
type fault uint8

const (
	faultNone     fault = iota
	faultShort          // the bytes end inside a pair
	faultLong           // a gap extension runs past maxGapLen bytes
	faultPadded         // a gap extension ends in a zero byte: not minimal
	faultRange          // the index reaches n
	faultCarried        // an escaped exponent the word could carry
	faultBelow          // a non-zero exponent below base, or above a base of 0
	faultPast           // base plus a narrow offset passes 255
	faultTrailing       // bytes are left after pair k
	faultNoBase         // no pair's exponent equals base
)

// err names fault f, met at pair p (0-based) of a payload whose
// header gave n, k and base. A fault in a pair past pair k is a byte
// after it.
func (f fault) err(p, n, k int, base uint8) error {
	if p >= k && f < faultTrailing {
		f = faultTrailing
	}
	switch f {
	case faultShort:
		return fmt.Errorf("compress: topk payload ends before pair %d of k=%d is complete", p, k)
	case faultLong:
		return fmt.Errorf("compress: topk pair %d: gap extension longer than %d bytes", p, maxGapLen)
	case faultPadded:
		return fmt.Errorf("compress: topk pair %d: gap extension not minimal", p)
	case faultRange:
		return fmt.Errorf("compress: topk pair %d: index out of range n=%d", p, n)
	case faultCarried:
		return fmt.Errorf("compress: topk pair %d: exponent escaped though base %d carries it", p, base)
	case faultBelow:
		return fmt.Errorf("compress: topk pair %d: base %d is not the smallest non-zero exponent", p, base)
	case faultPast:
		return fmt.Errorf("compress: topk pair %d: exponent past 255 (base %d)", p, base)
	case faultTrailing:
		return fmt.Errorf("compress: topk payload has bytes after pair k=%d", k)
	case faultNoBase:
		return fmt.Errorf("compress: topk base %d: no pair's exponent equals it", base)
	}
	return nil
}

// foldPairs adds the k pairs of a TopK pairs region into dst, of
// length n: dst[i] += v. It reads each pair in place, and at the first
// fault stops with dst partially written and reports which, with the
// number of pairs it had yet to fold (fault.err turns both into the
// error). Runs of narrow pairs go to foldRun; foldPairs itself takes
// the other pairs one at a time, with every check. Neither tests k per
// pair: the count is checked at the end, so pairs past the kth are
// folded before the payload is refused.
//
// Both replicas of a delta stream advance through this one compiled
// code (DeltaEncoder.Commit and DeltaDecoder.DecodeInto), so they stay
// bit-identical even through NaNs: when both operands of an add are
// NaN the result carries one operand's payload, which one depends on
// the instruction's operand order, and the compiler may order a
// commutative add either way at two separate sites (FuzzDeltaStream's
// NaN seed tells the difference). Hence out of line.
//
//go:noinline
func foldPairs(dst []float64, pairs []byte, base uint8, n, k int) (fault, int) {
	dst = dst[:n]
	b := uint32(base) << 23
	i := -1
	// atBase records that a pair's exponent equals base; an empty frame
	// has no pair to carry it.
	atBase := k == 0
	// Runs of narrow pairs go to foldRun once a pair at base has been
	// seen — it checks no offset — and never under a base of 0 or above
	// 253, where an offset needs the checks below.
	run := base != 0 && base <= 0xff-maxNarrow
	for {
		if run && atBase {
			rest, j := foldRun(dst, pairs, i, base)
			k -= (len(pairs) - len(rest)) / minPairLen
			pairs, i = rest, j
			if i >= n {
				return faultRange, k
			}
		}
		if len(pairs) < minPairLen {
			break
		}
		// An escaped pair, a pair before the first at base, or any pair
		// when there are no runs.
		w := binary.LittleEndian.Uint32(pairs)
		pairs = pairs[minPairLen:]
		off := w & offField >> 23
		f := w&^gapField + b
		switch {
		case off == wideOff:
			if len(pairs) == 0 { // no exponent byte
				return faultShort, k
			}
			e := uint32(pairs[0])
			pairs = pairs[1:]
			if e-uint32(base) <= maxNarrow {
				return faultCarried, k
			}
			if e != 0 && (e < uint32(base) || base == 0) {
				return faultBelow, k
			}
			f = w&^(gapField|expField) | e<<23
		case uint32(base)+off > 0xff:
			return faultPast, k
		case base == 0 && off != 0:
			return faultBelow, k
		case off == 0:
			atBase = true
		}
		gap := uint(w >> gapShift & wideGap)
		if gap == wideGap {
			// The varint of gap − 63 follows.
			x := uint(0)
			for s := uint(0); ; s += 7 {
				if s >= 7*maxGapLen {
					return faultLong, k
				}
				if len(pairs) == 0 { // the varint is cut short
					return faultShort, k
				}
				c := pairs[0]
				pairs = pairs[1:]
				x |= uint(c&0x7f) << s
				if c < 0x80 {
					if c == 0 && s > 0 {
						return faultPadded, k
					}
					break
				}
			}
			gap += x
		}
		i += int(gap) + 1
		if uint(i) >= uint(n) {
			return faultRange, k
		}
		dst[i] += float64(math.Float32frombits(f))
		k--
	}
	if k > 0 {
		return faultShort, k
	}
	if k < 0 || len(pairs) != 0 {
		return faultTrailing, 0
	}
	if !atBase {
		return faultNoBase, 0
	}
	return faultNone, 0
}

// foldRun folds the run of narrow pairs at the start of pairs into dst,
// the index continuing from i, and returns the rest of the pairs and
// the index reached. It stops at the first escaped word, when fewer
// than four bytes are left, or at an index that reaches len(dst), which
// it returns unfolded. It calls nothing, so its values stay in
// registers: with the escaped pairs taken inside its loop, the fold ran
// about 1.5× slower. Each instruction in it counts — the fold is
// throughput-bound, not memory-bound, even at n = 65536 — so one table
// load gives both the escape test and the index step, and the check
// that some pair sits at base is left to foldPairs: with the two field
// tests and the check in the loop it ran about 1.3× slower.
//
//go:noinline
func foldRun(dst []float64, pairs []byte, i int, base uint8) ([]byte, int) {
	b := uint32(base) << 23
	for len(pairs) >= minPairLen {
		w := binary.LittleEndian.Uint32(pairs)
		step := narrowStep[uint8(w>>23)]
		if step == 0 {
			break
		}
		i += int(step)
		if uint(i) >= uint(len(dst)) {
			break
		}
		dst[i] += float64(math.Float32frombits(w&^gapField + b))
		pairs = pairs[minPairLen:]
	}
	return pairs, i
}

// narrowStep maps bits 23–30 of a pair word, its offset and gap fields,
// to a narrow pair's index step, gap + 1, and to 0 when either field is
// an escape.
var narrowStep = func() (t [256]uint8) {
	for x := range t {
		if x&3 != wideOff && x>>2 != wideGap {
			t[x] = uint8(x>>2 + 1)
		}
	}
	return t
}()
