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

// Float32 bits of values whose exponent fields are 126, 127, 129, 130
// and 254, and of +Inf.
const (
	half   = 0x3f000000
	one    = 0x3f800000
	four   = 0x40800000
	eight  = 0x41000000
	huge   = 0x7f000000
	infF32 = 0x7f800000
)

// pairsAt returns pairs of the value bits f at the ascending indices.
func pairsAt(f uint32, idx ...int) []refPair {
	ps := make([]refPair, len(idx))
	for p, i := range idx {
		ps[p] = refPair{i, f}
	}
	return ps
}

// wideWord is the word of a pair of bits f whose gap field says an
// extension follows, with offset field off.
func wideWord(f uint32, off int) []byte {
	return binary.LittleEndian.AppendUint32(nil, f&0x807fffff|uint32(off)<<23|63<<25)
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
	idx := []int{1, 3, 6, 9, 12}
	good := pairsAt(one, idx...)
	// withPair is the frame of good with pair p's bytes replaced by bad,
	// each other pair written canonically.
	withPair := func(n, base int, ps []refPair, p int, bad []byte) []byte {
		b, last := topkHeader(n, len(ps), base), -1
		for q, r := range ps {
			if q == p {
				b = append(b, bad...)
			} else {
				b = appendPair(b, r.f, canonOff(base, r.f), r.i-last-1)
			}
			last = r.i
		}
		return b
	}
	escaped := append(append([]refPair(nil), good[:4]...), refPair{12, eight})
	gapped := append(append([]refPair(nil), good[:4]...), refPair{100, one})
	cases := []malformed{
		{None, make([]byte, 7), ""},
		{None, make([]byte, 12), ""}, // whole float32s, not whole float64s
		{Float32, make([]byte, 6), ""},
		{Kind(250), []byte{1, 2, 3}, ""}, // unknown codec
		{TopK, nil, "compress: topk payload too short (0 bytes)"},
		{TopK, make([]byte, 8), "compress: topk payload too short (8 bytes)"},
		{TopK, topkHeader(2, 3, 0), "compress: topk k=3 exceeds n=2"},
		{TopK, topkHeader(4, 1, 127), "compress: topk payload 9 bytes cannot hold k=1 pairs"}, // missing pairs
		// k larger than the bytes can hold, by one pair and by one byte.
		{TopK, frameOf(n, 6, 127, good), "compress: topk payload 29 bytes cannot hold k=6 pairs"},
		{TopK, frameOf(n, 5, 127, good)[:28], "compress: topk payload 28 bytes cannot hold k=5 pairs"},
		// A truncated last pair that the header's room check cannot see
		// — an earlier pair escaped its exponent — and a last pair
		// missing its exponent byte or its gap extension.
		{TopK, withPair(n, 127, good, 0, appendPair(nil, eight, 3, 1))[:29], "compress: topk payload ends before pair 4 of k=5 is complete"},
		{TopK, frameOf(n, 5, 127, escaped)[:29], "compress: topk payload ends before pair 4 of k=5 is complete"},
		{TopK, frameOf(128, 5, 127, gapped)[:29], "compress: topk payload ends before pair 4 of k=5 is complete"},
		// Five escaped pairs spend the bytes the room check counted for
		// a sixth, leaving three bytes of it or none.
		{TopK, append(frameOf(n, 6, 127, pairsAt(eight, idx...)), 0, 0, 0), "compress: topk payload ends before pair 5 of k=6 is complete"},
		{TopK, frameOf(n, 6, 127, pairsAt(eight, idx...)), "compress: topk payload ends before pair 5 of k=6 is complete"},
		// Bytes after pair k: one stray byte, and one whole extra pair.
		{TopK, append(frameOf(n, 5, 127, good), 0), "compress: topk payload has bytes after pair k=5"},
		{TopK, frameOf(n, 4, 127, good), "compress: topk payload has bytes after pair k=4"},
		// Expansion bomb: 13 wire bytes claiming an n=2^20 vector (k=1)
		// must not buy a megacoordinate allocation.
		{TopK, frameOf(1<<20, 1, 127, good[:1]), "compress: topk n=1048576 exceeds 1024·k (k=1)"},
		// A base no pair's exponent equals: every pair one above it, and
		// an empty frame's base other than 0.
		{TopK, frameOf(n, 5, 126, good), "compress: topk base 126: no pair's exponent equals it"},
		{TopK, topkHeader(0, 0, 5), "compress: topk base 5: no pair's exponent equals it"},
		// A base of 0 under a pair whose exponent field is 1, narrow or
		// escaped, and one whose exponent escapes at 127.
		{TopK, withPair(n, 0, pairsAt(0, idx...), 2, appendPair(nil, 0, 1, 2)), "compress: topk pair 2: base 0 is not the smallest non-zero exponent"},
		{TopK, withPair(n, 0, pairsAt(0, idx...), 2, appendPair(nil, 1<<23, 3, 2)), "compress: topk pair 2: exponent escaped though base 0 carries it"},
		{TopK, withPair(n, 0, pairsAt(0, idx...), 2, appendPair(nil, one, 3, 2)), "compress: topk pair 2: base 0 is not the smallest non-zero exponent"},
		// A base plus offset past 255, under bases 254 and 255.
		{TopK, withPair(n, 254, pairsAt(huge, idx...), 1, appendPair(nil, huge, 2, 1)), "compress: topk pair 1: exponent past 255 (base 254)"},
		{TopK, withPair(n, 255, pairsAt(infF32, idx...), 0, appendPair(nil, infF32, 1, 1)), "compress: topk pair 0: exponent past 255 (base 255)"},
	}
	// One bad pair among five valid ones, at the first, a middle and the
	// last position: one carrying the index to n, its gap written
	// narrow and as the largest extension; a gap extension ending in a
	// zero byte (gap 63 written long); extensions that continue past four
	// bytes — the last of which would wrap to 0 if its shifts were not
	// capped; an exponent escaped though base or base+2 carries it; and
	// an escaped exponent below base.
	for _, p := range []int{0, len(good) / 2, len(good) - 1} {
		last := -1
		if p > 0 {
			last = idx[p-1]
		}
		gap := idx[p] - last - 1
		bad := []struct {
			pair []byte
			err  string
		}{
			{appendPair(nil, one, 0, n-last-1), fmt.Sprintf("compress: topk pair %d: index out of range n=%d", p, n)},
			{append(wideWord(one, 0), 0xff, 0xff, 0xff, 0x7f), fmt.Sprintf("compress: topk pair %d: index out of range n=%d", p, n)},
			{append(wideWord(one, 0), 0x80, 0x00), fmt.Sprintf("compress: topk pair %d: gap extension not minimal", p)},
			{append(wideWord(one, 0), 0x81, 0x80, 0x80, 0x80, 0x00), fmt.Sprintf("compress: topk pair %d: gap extension longer than 4 bytes", p)},
			{append(wideWord(one, 0), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02), fmt.Sprintf("compress: topk pair %d: gap extension longer than 4 bytes", p)},
			{appendPair(nil, one, 3, gap), fmt.Sprintf("compress: topk pair %d: exponent escaped though base 127 carries it", p)},
			{appendPair(nil, four, 3, gap), fmt.Sprintf("compress: topk pair %d: exponent escaped though base 127 carries it", p)},
			{appendPair(nil, half, 3, gap), fmt.Sprintf("compress: topk pair %d: base 127 is not the smallest non-zero exponent", p)},
		}
		for _, b := range bad {
			cases = append(cases, malformed{TopK, withPair(n, 127, good, p, b.pair), b.err})
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
		if n, _, _, err := parseTopKHeader(c.payload); err == nil {
			dense := make([]int, n)
			for j := range dense {
				dense[j] = j
			}
			if _, err := dec.Decode(frameOf(n, n, 127, pairsAt(one, dense...))); err != nil {
				t.Fatalf("case %d: dense frame of dimension %d: %v", i, n, err)
			}
		}
		if _, err := dec.DecodeInto(nil, c.payload); err == nil || err.Error() != c.err {
			t.Errorf("case %d: DeltaDecoder says %v, want %q", i, err, c.err)
		}
	}
	if _, err := Decode(TopK, frameOf(n, 5, 127, good)); err == nil || !strings.Contains(err.Error(), "DeltaDecoder") {
		t.Errorf("Decode of a topk payload says %v, want a refusal naming DeltaDecoder", err)
	}
}

// TestGapVarintWidths round-trips a pair at each gap the pair's width
// changes at, through the encoder's pair writer and the decoder: the
// word alone up to 62, then the varint of gap − 63 in one byte from 63
// (a zero byte) to 190, two from 191, three from 63 + 2^14, four from
// 63 + 2^21. The pair is the first of k; the other k−1 follow it at gap
// 0, as many as the decoder's n ≤ 1024·k bound asks for.
func TestGapVarintWidths(t *testing.T) {
	for _, gap := range []int{0, 1, 62, 63, 64, 190, 191, 63 + 1<<14 - 1, 63 + 1<<14, 63 + 1<<21 - 1, 63 + 1<<21} {
		k := max(1, (gap+maxTopKExpansion-2)/(maxTopKExpansion-1))
		n := gap + k
		src := make([]float64, n)
		kept := make([]int32, 0, k)
		for i := gap; i < n; i++ {
			src[i] = 0.25
			kept = append(kept, int32(i))
		}
		src[gap] = 0.5
		out := make([]byte, 1+pairsCap(n, k))
		w := putPairs(out, src, kept, frameBase(src, kept))
		ps := []refPair{{gap, half}}
		for i := gap + 1; i < n; i++ {
			ps = append(ps, refPair{i, math.Float32bits(0.25)})
		}
		want := frameOf(n, k, refBase(ps), ps)
		ext := 0
		if gap >= 63 {
			ext = len(binary.AppendUvarint(nil, uint64(gap-63)))
		}
		if payload := append(topkHeader(n, k, 0)[:8], out[:w]...); !bytes.Equal(payload, want) || len(want) != topkHeaderLen+4*k+ext {
			t.Fatalf("gap %d: pairs % x, want % x", gap, out[:min(w, 16)], want[8:min(len(want), 24)])
		}
		got, err := foldFrame(want)
		if err != nil {
			t.Fatalf("gap %d: %v", gap, err)
		}
		if got[gap] != 0.5 || (gap > 0 && got[gap-1] != 0) || (k > 1 && got[n-1] != 0.25) {
			t.Fatalf("gap %d: decoded %g at index %d", gap, got[gap], gap)
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
// respects the allocation bound. The TopK seeds are valid frames — one
// sparse, one whose exponents span more than two and mix NaN, ±Inf, a
// zero and a subnormal with normal values, one whose gaps reach 63 and
// 191 — one of each hostile kind made from each, and an overlong gap
// extension.
func FuzzDecode(f *testing.F) {
	f.Add(uint8(None), []byte{0, 0, 0, 0, 0, 0, 0, 64})
	f.Add(uint8(Float32), []byte{0, 0, 128, 63})
	valid, _ := firstSparse(0.5, []float64{1, -2, 3, 0.25})
	wide, _ := firstSparse(1, []float64{1, -1e-3, 3e5, 0, math.NaN(), math.Inf(-1), 2e-45, 0.75})
	gaps := make([]float64, 512)
	gaps[0], gaps[64], gaps[256] = 1, -1.5, 2 // gaps 63 and 191
	gapped, _ := firstSparse(3.0/512, gaps)
	for _, v := range [][]byte{valid, wide, gapped} {
		f.Add(uint8(TopK), v)
		for how := 0; how < hostileKinds; how++ {
			f.Add(uint8(TopK), hostile(v, how))
		}
	}
	f.Add(uint8(TopK), withExt(frameOf(16, 2, 127, pairsAt(one, 0, 1)), 0x81, 0x80, 0x80, 0x80, 0x80, 0x00))
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
		// four bytes each really present.
		if int(k) > (len(payload)-topkHeaderLen)/minPairLen || len(out) > maxTopKExpansion*int(k) {
			t.Fatalf("%d payload bytes decoded to %d coords (k=%d)", len(payload), len(out), k)
		}
		// An accepted frame is canonical: the reference layout of its
		// pairs is the frame itself.
		if n, _, ps := pairsOf(payload); !bytes.Equal(frameOf(n, int(k), refBase(ps), ps), payload) {
			t.Fatalf("accepted a frame that is not the canonical layout of its pairs: % x", payload)
		}
		// A decoder with no replica yet takes only a dense frame.
		var fresh DeltaDecoder
		if _, err := fresh.Decode(payload); (err == nil) != (k == n) {
			t.Fatalf("a fresh decoder says %v to a frame of k=%d, n=%d", err, k, n)
		}
	})
}

// withExt returns a frame whose first pair's word says a gap extension
// follows, with ext as that extension.
func withExt(payload []byte, ext ...byte) []byte {
	b := append([]byte(nil), payload[:topkHeaderLen+4]...)
	b[topkHeaderLen+3] |= 63 << 1 // the gap field's bits in the word's top byte
	return append(append(b, ext...), payload[topkHeaderLen+4:]...)
}

// hostileKinds is the number of ways hostile damages a payload.
const hostileKinds = 9

// hostile returns a copy of a well-formed TopK payload with at least
// one pair, damaged in the way how (mod hostileKinds) picks, each of
// which a decoder must refuse: the first pair's gap extension written
// non-minimally (a first gap below 63 grows to 63 for it), the last
// pair's index moved to n, the last byte cut off, a byte after pair k,
// a k one larger than the pairs the bytes hold, a base one below the
// frame's (one above a base of 0) that no pair's exponent equals, an
// exponent escaped that the word carries, a base of 255 under a first
// word whose offset is 1, and a base one above the frame's (0 below a
// base of 255), which leaves an exponent below it.
func hostile(payload []byte, how int) []byte {
	n, base, ps := pairsOf(payload)
	k := len(ps)
	rebased := func(b int) []byte { return frameOf(n, k, b, ps) }
	// withFirst is the frame under base b with its first pair's bytes
	// replaced by first.
	withFirst := func(b int, first []byte) []byte {
		rest := rebased(b)[len(frameOf(n, 1, b, ps[:1])):]
		return append(append(topkHeader(n, k, b), first...), rest...)
	}
	switch how % hostileKinds {
	case 0:
		first := appendPair(nil, ps[0].f, canonOff(base, ps[0].f), max(ps[0].i, 63))
		first[len(first)-1] |= 0x80
		return withFirst(base, append(first, 0))
	case 1:
		ps[k-1].i = n
		return rebased(base)
	case 2:
		return append([]byte(nil), payload[:len(payload)-1]...)
	case 3:
		return append(append([]byte(nil), payload...), 0)
	case 4:
		return append(topkHeader(n, k+1, base), payload[topkHeaderLen:]...)
	case 5:
		if base == 0 {
			return rebased(1)
		}
		return rebased(base - 1)
	case 6:
		b, last := topkHeader(n, k, base), -1
		carried := false
		for _, p := range ps {
			off := canonOff(base, p.f)
			if off < 3 && !carried {
				off, carried = 3, true
			}
			b = appendPair(b, p.f, off, p.i-last-1)
			last = p.i
		}
		return b
	case 7:
		return withFirst(255, appendPair(nil, ps[0].f, 1, ps[0].i))
	default:
		if base == 255 {
			return rebased(0)
		}
		return rebased(base + 1)
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
