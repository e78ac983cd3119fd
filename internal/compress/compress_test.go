package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return v
}

func TestNoneRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 100, 4096} {
		src := randVec(rng, n)
		got, err := Decode(None, NewNone().Compress(nil, src))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d", n, len(got))
		}
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("n=%d: coord %d: %g != %g", n, i, got[i], src[i])
			}
		}
	}
}

func TestFloat32RoundTripWithinRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 17, 1000} {
		src := randVec(rng, n)
		got, err := Decode(Float32, NewFloat32().Compress(nil, src))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range src {
			if got[i] != float64(float32(src[i])) {
				t.Fatalf("coord %d: %g is not the float32 rounding of %g", i, got[i], src[i])
			}
		}
	}
}

// eachNonePath runs body on the None codec's path for this host and, on
// a little-endian host, again on the element-by-element path a
// big-endian host takes.
func eachNonePath(t *testing.T, body func(t *testing.T)) {
	t.Run("native", body)
	if littleEndian {
		t.Run("elementwise", func(t *testing.T) {
			defer func() { littleEndian = true }()
			littleEndian = false
			body(t)
		})
	}
}

// TestDenseCodecBytesMatchElementwiseReference pins the bulk encode
// and decode of None and Float32 to the one-element-at-a-time
// definition of the payload, for every length around the unrolled
// stride and for a destination that already holds bytes, with NaNs
// carrying payloads, −0 and the extremes among the values, decoding
// into a buffer shorter and one longer than the vector — None on both
// its paths.
func TestDenseCodecBytesMatchElementwiseReference(t *testing.T) {
	eachNonePath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		special := []float64{math.Float64frombits(0x7ff4_0000_dead_beef), math.Float64frombits(0xfff8_0000_0000_0042),
			math.Copysign(0, -1), math.Inf(-1), 5e-324, -math.MaxFloat64}
		prefix := []byte{0xAA, 0xBB, 0xCC}
		for n := 0; n <= 13; n++ {
			src := randVec(rng, n)
			for i := range src {
				if rng.Intn(3) == 0 {
					src[i] = special[rng.Intn(len(special))]
				}
			}
			want64, want32 := append([]byte(nil), prefix...), append([]byte(nil), prefix...)
			for _, v := range src {
				want64 = binary.LittleEndian.AppendUint64(want64, math.Float64bits(v))
				want32 = binary.LittleEndian.AppendUint32(want32, math.Float32bits(float32(v)))
			}
			got64 := NewNone().Compress(append([]byte(nil), prefix...), src)
			got32 := NewFloat32().Compress(append([]byte(nil), prefix...), src)
			if !bytes.Equal(got64, want64) || !bytes.Equal(got32, want32) {
				t.Fatalf("n=%d: encoded bytes differ from the element-wise reference", n)
			}
			for _, c := range []int{n / 2, n + 3} {
				dec64, err := DecodeInto(make([]float64, c), None, want64[len(prefix):])
				if err != nil {
					t.Fatal(err)
				}
				dec32, err := DecodeInto(make([]float64, c), Float32, want32[len(prefix):])
				if err != nil {
					t.Fatal(err)
				}
				if len(dec64) != n || len(dec32) != n {
					t.Fatalf("n=%d into %d: decoded %d and %d elements", n, c, len(dec64), len(dec32))
				}
				for i, v := range src {
					if math.Float64bits(dec64[i]) != math.Float64bits(v) || math.Float64bits(dec32[i]) != math.Float64bits(float64(float32(v))) {
						t.Fatalf("n=%d into %d: element %d decoded as %#x / %#x from %#x", n, c, i,
							math.Float64bits(dec64[i]), math.Float64bits(dec32[i]), math.Float64bits(v))
					}
				}
			}
		}
	})
}

// TestTopKProperties checks the sparsification contract on a stream's
// first sparse frame after a zero warm start, whose delta is the vector
// itself: exactly ceil(ratio*n) coords survive, the kept set is the k
// largest by magnitude, kept values are float32-exact, dropped coords
// fold to zero, and the L1 error is bounded by the dropped mass plus
// float32 rounding on the kept mass.
func TestTopKProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ratio := range []float64{0.01, 0.1, 0.5, 1.0} {
		for _, n := range []int{1, 10, 257, 2048} {
			src := randVec(rng, n)
			payload, enc := firstSparse(ratio, src)
			k := enc.keepCount(n)
			got, err := foldFrame(payload)
			if err != nil {
				t.Fatalf("ratio=%g n=%d: %v", ratio, n, err)
			}
			if len(got) != n {
				t.Fatalf("ratio=%g n=%d: decoded length %d", ratio, n, len(got))
			}
			kept := 0
			var minKept, maxDropped float64
			minKept = math.Inf(1)
			var droppedMass, errMass float64
			// A zero source coord may legitimately be "kept" as zero;
			// only non-zero decodes are unambiguous keeps, so kept is a
			// lower bound checked against the cap k.
			for i := range src {
				errMass += math.Abs(got[i] - src[i])
				if got[i] != 0 {
					kept++
					if got[i] != float64(float32(src[i])) {
						t.Fatalf("kept coord %d: %g not float32(%g)", i, got[i], src[i])
					}
					if a := math.Abs(src[i]); a < minKept {
						minKept = a
					}
				} else {
					droppedMass += math.Abs(src[i])
					if a := math.Abs(src[i]); a > maxDropped {
						maxDropped = a
					}
				}
			}
			if kept > k {
				t.Fatalf("ratio=%g n=%d: %d coords survived, cap %d", ratio, n, kept, k)
			}
			// Selection correctness: nothing dropped may exceed the
			// smallest kept magnitude.
			if kept > 0 && maxDropped > minKept {
				t.Fatalf("ratio=%g n=%d: dropped |%g| > kept |%g|", ratio, n, maxDropped, minKept)
			}
			// Error bound: dropped mass plus float32 rounding slack.
			bound := droppedMass
			for i := range src {
				bound += math.Abs(src[i]) * 1e-6
			}
			if errMass > bound+1e-12 {
				t.Fatalf("ratio=%g n=%d: L1 error %g exceeds bound %g", ratio, n, errMass, bound)
			}
		}
	}
}

func TestTopKRatioOneKeepsEverything(t *testing.T) {
	src := []float64{3, -1, 0.5, -7, 2}
	payload, _ := firstSparse(1.0, src)
	got, err := foldFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != float64(float32(src[i])) {
			t.Fatalf("coord %d: %g vs %g", i, got[i], src[i])
		}
	}
}

func TestTopKCompressionRatio(t *testing.T) {
	src := randVec(rand.New(rand.NewSource(4)), 1<<14)
	raw := len(NewNone().Compress(nil, src))
	payload, _ := firstSparse(0.1, src)
	topk := len(payload)
	if ratio := float64(raw) / float64(topk); ratio < 4 {
		t.Fatalf("topk:0.1 only %.1fx smaller than raw", ratio)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		ok   bool
	}{
		{"none", Spec{Kind: None}, true},
		{"", Spec{Kind: None}, true},
		{"float32", Spec{Kind: Float32}, true},
		{"F32", Spec{Kind: Float32}, true},
		{"topk", Spec{Kind: TopK, Ratio: DefaultTopKRatio}, true},
		{"topk:0.25", Spec{Kind: TopK, Ratio: 0.25}, true},
		{"topk:0", Spec{}, false},
		{"topk:1.5", Spec{}, false},
		{"topk:0.0001", Spec{}, false}, // below MinTopKRatio: decoder could not bound allocations
		{"gzip", Spec{}, false},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseSpec(%q): err=%v", c.in, err)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, s := range []string{"none", "float32", "topk:0.1"} {
		sp, err := ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		if sp.String() != s {
			t.Errorf("round-trip %q -> %q", s, sp.String())
		}
	}
}

// TestSpecValidate: every configuration layer funnels through
// Spec.Validate, and New must reject (panic on) exactly the values
// Validate rejects — never silently adjust the wire behavior.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		s  Spec
		ok bool
	}{
		{Spec{}, true},
		{Spec{Kind: Float32}, true},
		{Spec{Kind: TopK}, true}, // zero ratio = default
		{Spec{Kind: TopK, Ratio: MinTopKRatio}, true},
		{Spec{Kind: TopK, Ratio: 1}, true},
		{Spec{Kind: TopK, Ratio: 1e-5}, false},
		{Spec{Kind: TopK, Ratio: 1.2}, false},
		{Spec{Kind: TopK, Ratio: -0.1}, false},
		{Spec{Kind: Kind(9)}, false},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v", c.s, err)
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			c.s.New()
			return
		}()
		if c.ok && panicked {
			t.Errorf("New(%+v) panicked on a valid spec", c.s)
		}
		if !c.ok && c.s.Kind == TopK && !panicked {
			t.Errorf("New(%+v) silently accepted a ratio Validate rejects", c.s)
		}
	}
}

// topkFrame builds a TopK payload with the given header and pairs:
// each pair is its gap bytes, taken as given, then the float32 1.
func topkFrame(n, k int, gaps ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(n))
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	for _, g := range gaps {
		b = append(b, g...)
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(1))
	}
	return b
}

// gapsOf returns the minimal gap varints of ascending indices.
func gapsOf(idx ...int) [][]byte {
	gaps := make([][]byte, len(idx))
	last := -1
	for p, i := range idx {
		gaps[p] = binary.AppendUvarint(nil, uint64(i-last-1))
		last = i
	}
	return gaps
}

// TestDecodeRejectsMalformed feeds malformed payloads to Decode and, for
// TopK, to a DeltaDecoder whose replica already has the frame's
// dimension, so a sparse frame gets past the re-key check to its pairs;
// it must reject every TopK case with the given text. Decode refuses
// any TopK payload, a well-formed one included.
func TestDecodeRejectsMalformed(t *testing.T) {
	type malformed struct {
		kind    Kind
		payload []byte
		err     string // TopK only
	}
	const n = 16
	good := gapsOf(1, 3, 6, 9, 12)
	two := gapsOf(1, 3, 6, 9, 200) // the last gap takes two bytes
	truncated := topkFrame(256, 5, two...)
	truncated = truncated[:len(truncated)-1]
	long := gapsOf(128, 257, 386, 515, 644)
	cases := []malformed{
		{None, make([]byte, 7), ""},
		{None, make([]byte, 12), ""}, // whole float32s, not whole float64s
		{Float32, make([]byte, 6), ""},
		{Kind(250), []byte{1, 2, 3}, ""}, // unknown codec
		{TopK, nil, "compress: topk payload too short (0 bytes)"},
		{TopK, make([]byte, 7), "compress: topk payload too short (7 bytes)"},
		{TopK, topkFrame(2, 3), "compress: topk k=3 exceeds n=2"},
		{TopK, topkFrame(4, 1), "compress: topk payload 8 bytes cannot hold k=1 pairs"}, // missing pairs
		// k larger than the bytes can hold, by one pair and by one byte.
		{TopK, topkFrame(n, 6, good...), "compress: topk payload 33 bytes cannot hold k=6 pairs"},
		{TopK, topkFrame(n, 5, good...)[:32], "compress: topk payload 32 bytes cannot hold k=5 pairs"},
		// A truncated last pair that the header's room check cannot see:
		// an earlier gap took two bytes.
		{TopK, truncated, "compress: topk payload ends before pair 4 of k=5 is complete"},
		// Five two-byte gaps spend the bytes the room check counted for
		// a sixth pair, leaving four bytes of it or none.
		{TopK, append(topkFrame(700, 6, long...), 0, 0, 0, 0), "compress: topk payload ends before pair 5 of k=6 is complete"},
		{TopK, topkFrame(700, 6, long...), "compress: topk payload ends before pair 5 of k=6 is complete"},
		// Bytes after pair k: one stray byte, and one whole extra pair.
		{TopK, append(topkFrame(n, 5, good...), 0), "compress: topk payload has bytes after pair k=5"},
		{TopK, topkFrame(n, 4, good...), "compress: topk payload has bytes after pair k=4"},
		// Expansion bomb: 13 wire bytes claiming an n=2^20 vector (k=1)
		// must not buy a megacoordinate allocation.
		{TopK, topkFrame(1<<20, 1, []byte{0}), "compress: topk n=1048576 exceeds 1024·k (k=1)"},
	}
	// One bad gap among five valid ones, at the first, a middle and the
	// last position: one carrying the index to n, the largest four-byte
	// varint, a two-byte varint ending in a zero byte (gap 0 written
	// long), and a varint that continues past four bytes — the last of
	// which would wrap to gap 0 if its shifts were not capped.
	for _, p := range []int{0, len(good) / 2, len(good) - 1} {
		last := -1
		if p > 0 {
			last = []int{1, 3, 6, 9, 12}[p-1]
		}
		bad := []struct {
			gap []byte
			err string
		}{
			{binary.AppendUvarint(nil, uint64(n-last-1)), fmt.Sprintf("compress: topk pair %d: index out of range n=%d", p, n)},
			{[]byte{0xff, 0xff, 0xff, 0x7f}, fmt.Sprintf("compress: topk pair %d: index out of range n=%d", p, n)},
			{[]byte{0x80, 0x00}, fmt.Sprintf("compress: topk pair %d: gap varint not minimal", p)},
			{[]byte{0x81, 0x80, 0x80, 0x80, 0x00}, fmt.Sprintf("compress: topk pair %d: gap varint longer than 4 bytes", p)},
			{[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, fmt.Sprintf("compress: topk pair %d: gap varint longer than 4 bytes", p)},
		}
		for _, b := range bad {
			gaps := append([][]byte(nil), good...)
			gaps[p] = b.gap
			cases = append(cases, malformed{TopK, topkFrame(n, len(gaps), gaps...), b.err})
		}
	}
	for i, c := range cases {
		if c.kind != TopK {
			if _, err := Decode(c.kind, c.payload); err == nil {
				t.Errorf("case %d (%v, %d bytes): malformed payload accepted", i, c.kind, len(c.payload))
			}
			continue
		}
		var dec DeltaDecoder
		if n, _, err := parseTopKHeader(c.payload); err == nil {
			dense := make([]int, n)
			for j := range dense {
				dense[j] = j
			}
			if _, err := dec.Decode(topkFrame(n, n, gapsOf(dense...)...)); err != nil {
				t.Fatalf("case %d: dense frame of dimension %d: %v", i, n, err)
			}
		}
		if _, err := dec.DecodeInto(nil, c.payload); err == nil || err.Error() != c.err {
			t.Errorf("case %d: DeltaDecoder says %v, want %q", i, err, c.err)
		}
	}
	if _, err := Decode(TopK, topkFrame(n, 5, good...)); err == nil || !strings.Contains(err.Error(), "DeltaDecoder") {
		t.Errorf("Decode of a topk payload says %v, want a refusal naming DeltaDecoder", err)
	}
}

// TestGapVarintWidths round-trips a pair at each gap the varint's
// width changes at, through the encoder's pair writer and the decoder:
// one byte up to 127, two from 128 (whose first byte is exactly the
// continuation bit), three from 2^14, four from 2^21. The pair is the
// first of k; the other k−1 follow it at gap 0, as many as the
// decoder's n ≤ 1024·k bound asks for.
func TestGapVarintWidths(t *testing.T) {
	for _, gap := range []int{0, 1, 127, 128, 129, 255, 16383, 16384, 1<<21 - 1, 1 << 21} {
		k := max(1, (gap+maxTopKExpansion-2)/(maxTopKExpansion-1))
		n := gap + k
		payload := binary.LittleEndian.AppendUint32(nil, uint32(n))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(k))
		pairs := make([]byte, pairsCap(n, k))
		w := putPair(pairs, uint32(gap), 0.5)
		want := binary.AppendUvarint(nil, uint64(gap))
		if w != len(want)+4 || !bytes.Equal(pairs[:len(want)], want) {
			t.Fatalf("gap %d: pair % x, want the varint % x", gap, pairs[:w], want)
		}
		for p := 1; p < k; p++ {
			w += putPair(pairs[w:], 0, 0.25)
		}
		out, err := foldFrame(append(payload, pairs[:w]...))
		if err != nil {
			t.Fatalf("gap %d: %v", gap, err)
		}
		if out[gap] != 0.5 || (gap > 0 && out[gap-1] != 0) || (k > 1 && out[n-1] != 0.25) {
			t.Fatalf("gap %d: decoded %g at index %d", gap, out[gap], gap)
		}
	}
}

// TestDeltaStreamReplicasStayInStep is the core soundness invariant of
// TopK on the wire: after every frame, the sender's replica of the
// receiver (DeltaEncoder.ref) and the receiver's reconstruction
// (DeltaDecoder.ref) are identical, the warm start is float32-exact,
// and for a held state the implicit error-feedback residual (x − ref)
// drains — dropped mass is re-sent, never lost.
func TestDeltaStreamReplicasStayInStep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	enc := NewDeltaEncoder(0.1)
	dec := new(DeltaDecoder)
	const dim, rounds = 257, 60
	x := randVec(rng, dim)
	l1 := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	}
	prevErr := math.Inf(1)
	for r := 0; r < rounds; r++ {
		// Random-walk the state for the first half, then hold it fixed
		// so the residual contraction is observable.
		if r > 0 && r < rounds/2 {
			for i := range x {
				x[i] += 0.01 * rng.NormFloat64()
			}
		}
		payload := enc.Compress(nil, x)
		enc.Commit()
		recon, err := dec.Decode(payload)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i := range recon {
			if recon[i] != enc.ref[i] {
				t.Fatalf("round %d: replicas diverged at %d: %g vs %g", r, i, recon[i], enc.ref[i])
			}
		}
		if r == 0 {
			// Dense warm start: float32-exact.
			for i := range recon {
				if recon[i] != float64(float32(x[i])) {
					t.Fatalf("warm start coord %d: %g", i, recon[i])
				}
			}
		}
		if r >= rounds/2 {
			// Held state: the tracking error must be non-increasing
			// (modulo float32 rounding slack) round over round.
			e := l1(x, recon)
			if e > prevErr+1e-6 {
				t.Fatalf("round %d: error grew %g -> %g with state held fixed", r, prevErr, e)
			}
			prevErr = e
		}
	}
	// After 30 held rounds at 10% sparsity the residual must have
	// drained: the reconstruction converges to x.
	var mass float64
	for _, v := range x {
		mass += math.Abs(v)
	}
	payload := enc.Compress(nil, x)
	enc.Commit()
	last, _ := dec.Decode(payload)
	if errMass := l1(x, last); errMass > 1e-4*mass {
		t.Fatalf("residual never drained: L1 error %g of mass %g", errMass, mass)
	}
}

// TestDeltaStreamUncommittedFrameIsResent: a staged frame the caller
// failed to deliver (no Commit) must not advance the sender replica —
// the next frame re-carries the mass and the receiver stays in step.
func TestDeltaStreamUncommittedFrameIsResent(t *testing.T) {
	enc := NewDeltaEncoder(0.5)
	dec := new(DeltaDecoder)
	x := []float64{10, -20, 30, -40}
	enc.Compress(nil, x) // send fails: never committed, receiver saw nothing
	payload := enc.Compress(nil, x)
	enc.Commit()
	recon, err := dec.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if recon[i] != float64(float32(x[i])) {
			t.Fatalf("coord %d lost after failed send: %g, want %g", i, recon[i], x[i])
		}
	}
	// And after a committed warm start, a failed sparse frame must not
	// mark its mass as delivered either.
	y := []float64{11, -20, 30, -40} // one coordinate moved
	enc.Compress(nil, y)             // fails
	payload = enc.Compress(nil, y)
	enc.Commit()
	recon, err = dec.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if recon[0] != float64(float32(11.0)) {
		t.Fatalf("moved coordinate lost after failed sparse send: %g", recon[0])
	}
}

// TestDeltaStreamFailedRekeyDoesNotPoisonDimension: an uncommitted
// re-key frame of a different dimension must not leak its length into
// the next encode (this used to panic, or emit a wrong-dimension
// frame in the widening direction).
func TestDeltaStreamFailedRekeyDoesNotPoisonDimension(t *testing.T) {
	enc := NewDeltaEncoder(0.5)
	dec := new(DeltaDecoder)
	x := []float64{1, 2, 3, 4}
	p := enc.Compress(nil, x)
	enc.Commit()
	if _, err := dec.Decode(p); err != nil {
		t.Fatal(err)
	}
	enc.Compress(nil, []float64{7, 8})          // shrink re-key: send fails, never committed
	enc.Compress(nil, []float64{1, 2, 3, 4, 5}) // widen re-key: also fails
	x[0] = 9
	p = enc.Compress(nil, x) // back to the live dimension
	enc.Commit()
	recon, err := dec.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(recon) != len(x) {
		t.Fatalf("frame re-keyed the receiver to dim %d, want %d", len(recon), len(x))
	}
	for i := range x {
		if recon[i] != float64(float32(x[i])) {
			t.Fatalf("coord %d: %g, want %g", i, recon[i], x[i])
		}
	}
}

// TestDeltaStreamRekeysOnDimensionChange: a length change restarts the
// stream with a dense frame on both sides.
func TestDeltaStreamRekeysOnDimensionChange(t *testing.T) {
	enc := NewDeltaEncoder(0.5)
	dec := new(DeltaDecoder)
	p1 := enc.Compress(nil, []float64{1, 2, 3, 4})
	enc.Commit()
	if _, err := dec.Decode(p1); err != nil {
		t.Fatal(err)
	}
	y := []float64{5, -6}
	p2 := enc.Compress(nil, y)
	enc.Commit()
	recon, err := dec.Decode(p2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if recon[i] != y[i] {
			t.Fatalf("after re-key coord %d: %g, want %g", i, recon[i], y[i])
		}
	}
}

// TestDeltaDecoderRejectsSparseRekey: a frame whose dimension differs
// from the replica must be dense (the encoder always warm-starts
// densely); a sparse wrong-dimension frame is corruption and accepting
// it would wipe the replica into mostly-zero "state".
func TestDeltaDecoderRejectsSparseRekey(t *testing.T) {
	dec := new(DeltaDecoder)
	// First frame sparse: k < n with no established replica.
	sparse, _ := firstSparse(MinTopKRatio, make([]float64, 2048))
	if _, err := dec.Decode(sparse); err == nil {
		t.Error("sparse first frame accepted")
	}
	// Establish a 4-dim replica, then offer a sparse 2048-dim frame.
	enc := NewDeltaEncoder(0.5)
	p := enc.Compress(nil, []float64{1, 2, 3, 4})
	enc.Commit()
	if _, err := dec.Decode(p); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(sparse); err == nil {
		t.Error("sparse re-key frame accepted; replica would be wiped")
	}
	// The established stream still works after the rejected frames.
	p = enc.Compress(nil, []float64{1, 2, 3, 5})
	enc.Commit()
	if out, err := dec.Decode(p); err != nil || out[3] != 5 {
		t.Errorf("stream broken after rejected re-key: %v %v", out, err)
	}
}

// FuzzDecode asserts decoding never panics on arbitrary wire bytes —
// Decode for the dense kinds, a DeltaDecoder whose replica has the
// payload's dimension for TopK — and that what a DeltaDecoder accepts
// respects the allocation bound. The TopK seeds are a valid frame and
// one of each hostile kind: an overlong gap varint, a gap that carries
// the index to n, a truncated last pair, a byte after pair k, and a k
// the bytes cannot hold.
func FuzzDecode(f *testing.F) {
	f.Add(uint8(None), []byte{0, 0, 0, 0, 0, 0, 0, 64})
	f.Add(uint8(Float32), []byte{0, 0, 128, 63})
	valid, _ := firstSparse(0.5, []float64{1, -2, 3, 0.25})
	f.Add(uint8(TopK), valid)
	for how := 0; how < hostileKinds; how++ {
		f.Add(uint8(TopK), hostile(valid, how))
	}
	f.Add(uint8(TopK), topkFrame(16, 2, []byte{0x81, 0x80, 0x80, 0x80, 0x80, 0x00}, []byte{0}))
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		if Kind(kind) != TopK {
			Decode(Kind(kind), payload)
			return
		}
		out, err := foldFrame(payload)
		if err != nil {
			return
		}
		n, k := binary.LittleEndian.Uint32(payload), binary.LittleEndian.Uint32(payload[4:])
		if len(out) != int(n) {
			t.Fatalf("topk decoded %d coords, header says %d", len(out), n)
		}
		// The allocation bound: n ≤ 1024·k, with k pairs of at least
		// five bytes each really present.
		if int(k) > (len(payload)-8)/minPairLen || len(out) > maxTopKExpansion*int(k) {
			t.Fatalf("%d payload bytes decoded to %d coords (k=%d)", len(payload), len(out), k)
		}
		// A decoder with no replica yet takes only a dense frame.
		var fresh DeltaDecoder
		if _, err := fresh.Decode(payload); (err == nil) != (k == n) {
			t.Fatalf("a fresh decoder says %v to a frame of k=%d, n=%d", err, k, n)
		}
	})
}

// hostileKinds is the number of ways hostile damages a payload.
const hostileKinds = 5

// hostile returns a copy of a well-formed TopK payload damaged in the
// way how (mod hostileKinds) picks, each of which a decoder must
// refuse: the first gap written non-minimally (an overlong varint),
// the last pair's gap carrying its index to n, the last pair
// truncated, a byte after pair k, and a k one larger than the pairs
// the bytes hold.
func hostile(payload []byte, how int) []byte {
	b := append([]byte(nil), payload...)
	switch how % hostileKinds {
	case 0:
		gap, w := binary.Uvarint(b[8:])
		long := binary.AppendUvarint(nil, gap)
		long[len(long)-1] |= 0x80
		long = append(long, 0)
		return append(append(b[:8:8], long...), b[8+w:]...)
	case 1:
		v3 := v3Of(b)
		copy(v3[len(v3)-8:], b[:4]) // the last index becomes n
		return gapCode(v3)
	case 2:
		return b[:len(b)-1]
	case 3:
		return append(b, 0)
	default:
		binary.LittleEndian.PutUint32(b[4:], binary.LittleEndian.Uint32(b[4:])+1)
		return b
	}
}

// FuzzRoundTrip asserts compress→decode preserves every codec's
// contract on arbitrary vectors; TopK's frame is a stream's first
// sparse frame after a zero warm start.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(1), 10)
	f.Add(int64(99), 1)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 0 || n > 1<<12 {
			t.Skip()
		}
		src := randVec(rand.New(rand.NewSource(seed)), n)
		topk, _ := firstSparse(0.3, src)
		for _, c := range []struct {
			kind    Kind
			payload []byte
		}{{None, NewNone().Compress(nil, src)}, {Float32, NewFloat32().Compress(nil, src)}, {TopK, topk}} {
			got, err := Decode(c.kind, c.payload)
			if c.kind == TopK {
				got, err = foldFrame(c.payload)
			}
			if err != nil {
				t.Fatalf("%v: %v", c.kind, err)
			}
			if len(got) != len(src) {
				t.Fatalf("%v: length %d want %d", c.kind, len(got), len(src))
			}
			for i := range got {
				if got[i] != 0 && got[i] != src[i] && got[i] != float64(float32(src[i])) {
					t.Fatalf("%v coord %d: %g from %g", c.kind, i, got[i], src[i])
				}
			}
		}
	})
}
