package compress

// delta_stream_test.go — the delta stream against the specification
// encoder, frame by frame, through every turn the selection's stream
// state can take: a settled threshold, a collapsing one (refill), ties,
// NaN and ±Inf, frames that are staged and never committed, re-keys.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// One script byte is one frame: the low three bits say what happens to
// the state x before it is encoded, opDrop that the frame is staged but
// never committed (a failed send), opHostile that before the decoder
// folds the frame it is offered, on a copy of its replica, the frame
// damaged in each of the ways hostile knows, and refuses every one.
const (
	opDrift    = iota // every coordinate takes a random step
	opCollapse        // the residual x − ref shrinks 100×: the threshold falls through the margin
	opHold            // x unchanged: the residual is what the last frame left behind
	opSettle          // x = ref: an all-zero delta, every coordinate tied
	opTies            // x = ref + {−½, 0, ½}: three magnitudes, ties at the threshold
	opNaN             // NaN, +Inf and −Inf coordinates for this frame only
	opInf             // ±Inf coordinates for this frame only: still a total order
	opResize          // the dimension changes: the next frame re-keys densely
	opKinds    = 8
	opDrop     = 8
	opHostile  = 16
)

// runDeltaStream drives an encoder through script, and a decoder behind
// it. Every frame must equal the specification bytes for x − ref, and
// after every commit the decoder's replica must equal the encoder's bit
// for bit. It returns the work counters of the stream.
func runDeltaStream(t testing.TB, n int, ratio float64, seed int64, frames int, script []byte) streamSel {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	enc := NewDeltaEncoder(ratio)
	var dec DeltaDecoder
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for f := 0; f < frames; f++ {
		op := byte(opDrift)
		if len(script) > 0 {
			op = script[f%len(script)]
		}
		rekey := len(enc.ref) != len(x)
		var saved []float64 // a non-finite frame's state, restored after it
		switch kind := op % opKinds; {
		case kind == opResize:
			x = make([]float64, (len(x)+3)%(n+7)+1)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			rekey = len(enc.ref) != len(x)
		case kind == opDrift || rekey:
			// Before the warm start there is no replica to perturb
			// against, so every other op degrades to a drift.
			for i := range x {
				x[i] += rng.NormFloat64()
			}
		case kind == opCollapse:
			for i := range x {
				x[i] = enc.ref[i] + (x[i]-enc.ref[i])/100
			}
		case kind == opHold:
		case kind == opSettle:
			copy(x, enc.ref)
		case kind == opTies:
			for i := range x {
				x[i] = enc.ref[i] + float64(rng.Intn(3)-1)/2
			}
		default: // opNaN, opInf
			saved = append(saved, x...)
			poison := []float64{math.Inf(1), math.Inf(-1)}
			if kind == opNaN {
				poison = append(poison, math.NaN())
			}
			for _, v := range poison {
				x[rng.Intn(len(x))] = v
			}
		}

		// The specification for this frame: the top k of x − ref by the
		// full sort on magnitude bits, NaNs included.
		k, delta := len(x), append([]float64(nil), x...)
		if !rekey {
			k = enc.keepCount(len(x))
			for i := range delta {
				delta[i] -= enc.ref[i]
			}
		}
		want3 := refEncodeV3(delta, k)
		want := gapCode(want3)
		// The refill rule, restated: a sparse frame gathers twice exactly
		// when the stream has a threshold and fewer than k magnitudes
		// clear nine tenths of it (a NaN clears any cutoff).
		sparse := !rekey && k < len(x)
		wantRefills := enc.sel.refills
		if prevT := enc.sel.lastT; sparse && prevT >= 0 {
			m := 0
			for _, d := range delta {
				if a := math.Abs(d); a > 0.9*prevT || math.IsNaN(a) {
					m++
				}
			}
			if m < k {
				wantRefills++
			}
		}

		payload := enc.Compress(nil, x)
		if !bytes.Equal(payload, want) {
			t.Fatalf("frame %d (op %#x, n=%d k=%d): payload differs from the specification", f, op, len(x), k)
		}
		// The specification's (index, float32) pairs in the v3 layout
		// decode to the same bits as the frame.
		if got, err := foldFrame(payload); err != nil || !sameBits(got, decodeV3(want3)) {
			t.Fatalf("frame %d (op %#x): decode differs from the reference decode of its pairs (err %v)", f, op, err)
		}
		// A sparse frame leaves its threshold, the kth magnitude, as the
		// next frame's hint.
		if sparse {
			if T := magBits(delta, bySpec(delta)[k-1]); math.Float64bits(enc.sel.lastT) != T {
				t.Fatalf("frame %d (op %#x): threshold hint %#x, want the kth magnitude %#x", f, op, math.Float64bits(enc.sel.lastT), T)
			}
		}
		if enc.sel.refills != wantRefills {
			t.Fatalf("frame %d (op %#x, n=%d k=%d): %d refills so far, want %d", f, op, len(x), k, enc.sel.refills, wantRefills)
		}
		if op&opHostile != 0 {
			for how := 0; how < hostileKinds; how++ {
				probe := DeltaDecoder{ref: append([]float64(nil), dec.ref...)}
				if _, err := probe.Decode(hostile(payload, how)); err == nil {
					t.Fatalf("frame %d (op %#x): frame damaged in way %d accepted", f, op, how)
				}
			}
		}
		if op&opDrop == 0 {
			enc.Commit()
			if _, err := dec.DecodeInto(nil, payload); err != nil {
				t.Fatalf("frame %d (op %#x): decode: %v", f, op, err)
			}
			if len(enc.ref) != len(dec.ref) {
				t.Fatalf("frame %d: replica dimensions %d and %d", f, len(enc.ref), len(dec.ref))
			}
			for i, v := range enc.ref {
				if math.Float64bits(v) != math.Float64bits(dec.ref[i]) {
					t.Fatalf("frame %d (op %#x): replicas differ at %d: %g vs %g", f, op, i, v, dec.ref[i])
				}
			}
		}
		if saved != nil {
			x = saved
		}
	}
	return enc.sel
}

// The turns a stream can take, as scripts (each is cycled, so every
// perturbation meets a stream that has drifted since the last one).
var (
	scriptCollapse  = []byte{opDrift, opDrift, opDrift, opDrift, opCollapse, opDrift}
	scriptTies      = []byte{opDrift, opDrift, opHold, opHold, opSettle, opSettle, opTies, opTies, opDrift}
	scriptNonFinite = []byte{opDrift, opDrift, opNaN | opDrop, opDrift, opInf | opDrop, opDrift, opDrift, opNaN, opDrift, opDrift, opResize}
	scriptDropped   = []byte{opDrift, opDrift, opDrift | opDrop, opHold, opCollapse | opDrop, opHold, opResize | opDrop, opDrift}
	scriptResize    = []byte{opDrift, opDrift, opDrift, opResize, opDrift, opDrift, opTies, opResize | opDrop, opResize}
	// Each hostile kind, on a sparse frame, a NaN frame and a re-key.
	scriptHostile = []byte{opDrift, opDrift | opHostile, opNaN | opHostile, opSettle | opHostile,
		opTies | opHostile, opResize | opHostile, opDrift | opHostile}
)

// TestDeltaStreamMatchesReference runs long dense-drift streams — the
// shape training produces, where the threshold hint does its work —
// with every perturbation above injected along the way: a committed NaN
// poisons the replica until the next re-key, so the script also covers
// a stream whose every delta holds a NaN for a while and then recovers.
// Every frame, dense re-keys and NaN frames included, decodes to the
// bits a v3 decode of the specification's pairs gives.
func TestDeltaStreamMatchesReference(t *testing.T) {
	frames := 320
	if testing.Short() {
		frames = 80
	}
	var script []byte
	for _, s := range [][]byte{scriptCollapse, scriptTies, scriptNonFinite, scriptDropped, scriptResize, scriptHostile} {
		for i := 0; i < 12; i++ {
			script = append(script, opDrift)
		}
		script = append(script, s...)
	}
	for _, n := range []int{1, 7, 410, 4096, 4097} {
		for _, ratio := range []float64{0.01, 0.1, 0.5, 1} {
			sel := runDeltaStream(t, n, ratio, int64(n)+int64(ratio*1000), frames, script)
			if sparse := n >= 410 && ratio < 1; sparse && (sel.refills == 0 || sel.frames < frames/2) {
				t.Errorf("n=%d ratio=%g: %d sparse frames and %d refills: the script missed the paths it is for", n, ratio, sel.frames, sel.refills)
			}
		}
	}
}

// FuzzDeltaStream lets the fuzzer write the script: frame count,
// dimension, keep ratio and the per-frame perturbations all come from
// its bytes. The seed corpus is the six scripts above.
func FuzzDeltaStream(f *testing.F) {
	for i, s := range [][]byte{scriptCollapse, scriptTies, scriptNonFinite, scriptDropped, scriptResize, scriptHostile} {
		f.Add(uint8(40), uint16(300+i), uint8(25), int64(i), s)
	}
	f.Add(uint8(12), uint16(1), uint8(0), int64(9), []byte{opTies, opNaN})
	// Gaps reaching 63 and 191 (k = 4 of 1000), dense frames whose
	// exponents span far more than two, and zeros, NaN and ±Inf among
	// normal values.
	f.Add(uint8(30), uint16(999), uint8(1), int64(10), []byte{opDrift})
	f.Add(uint8(20), uint16(299), uint8(255), int64(11), []byte{opDrift, opNaN, opDrift, opInf | opHostile})
	f.Add(uint8(30), uint16(199), uint8(200), int64(12), []byte{opTies, opNaN | opHostile, opTies, opInf, opSettle, opTies})
	f.Fuzz(func(t *testing.T, frames uint8, n uint16, ratio uint8, seed int64, script []byte) {
		r := math.Max(MinTopKRatio, float64(ratio)/255)
		runDeltaStream(t, 1+int(n)%1024, r, seed, int(frames), script)
	})
}

// TestDeltaStreamWorkBound counts what the selection does on a stream
// shaped like training, instead of timing it: once the threshold hint
// has settled, no frame refills and a frame selects among fewer than
// 2k candidates, not n magnitudes.
func TestDeltaStreamWorkBound(t *testing.T) {
	const n, warm, frames = 4096, 20, 1000
	rng := rand.New(rand.NewSource(17))
	enc := NewDeltaEncoder(0.1)
	k := enc.keepCount(n)
	x := make([]float64, n)
	var buf []byte
	var base streamSel
	for f := 0; f < warm+frames; f++ {
		if f == warm {
			base = enc.sel
		}
		for i := range x {
			x[i] += rng.NormFloat64()
		}
		buf = enc.Compress(buf[:0], x)
		enc.Commit()
	}
	got := enc.sel
	got.frames -= base.frames
	got.refills -= base.refills
	got.cands -= base.cands
	if got.frames != frames || got.refills != 0 || got.cands > 2*k*frames {
		t.Errorf("%d sparse frames, %d refills, %.0f candidates a frame (k=%d, n=%d); want %d, 0, at most %d",
			got.frames, got.refills, float64(got.cands)/frames, k, n, frames, 2*k)
	}
}

// TestFrameShapesMatchPairReference pins each kind of frame the
// layout's escapes exist for to the specification: the frame is the
// reference layout (gapCode) of the specification's (index, float32)
// pairs, and both a DeltaDecoder and the encoder's own replica fold it
// to the bits the plain decode of those pairs gives (decodeV3) — the
// bits the v5 layout's frames decoded to. Every case also checks that
// its frame has the shape it is named for.
func TestFrameShapesMatchPairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	nan, inf := math.NaN(), math.Inf(1)
	spaced := func(n, step int, extra ...int) []float64 {
		v := make([]float64, n)
		for i := 0; i < n; i += step {
			v[i] = 1 + rng.Float64()
		}
		for _, i := range extra {
			v[i] = -3
		}
		return v
	}
	escaped := func(base int, ps []refPair) (n int) {
		for _, p := range ps {
			if canonOff(base, p.f) == 3 {
				n++
			}
		}
		return n
	}
	maxGap := func(ps []refPair) (g int) {
		last := -1
		for _, p := range ps {
			g, last = max(g, p.i-last-1), p.i
		}
		return g
	}
	cases := []struct {
		name  string
		src   []float64
		ratio float64 // 0: the stream's dense re-key frame
		shape func(base int, ps []refPair) bool
	}{
		{"exponent span above two", randVec(rng, 600), 0.1, func(base int, ps []refPair) bool {
			return escaped(base, ps) > 0
		}},
		{"NaN and Inf among normals", []float64{1, nan, 2, -inf, 3, inf, 0.5, -nan, 1.5, 4}, 0.8, func(base int, ps []refPair) bool {
			return base == 127 && escaped(base, ps) == 4
		}},
		{"zero among normals", []float64{0, 1, 0, -1, 0, 0, 1, 0}, 0.75, func(base int, ps []refPair) bool {
			return base == 127 && escaped(base, ps) == 3
		}},
		{"subnormals among normals", []float64{1e-45, 1, -3e-42, 2, 0.75, 0}, 1, func(base int, ps []refPair) bool {
			return base == 126 && escaped(base, ps) == 3
		}},
		{"a threshold that is zero in float32", []float64{1e-45, 1, 0, -3e-42, 2, 0.75, 0, 1e-50}, 0.625, func(base int, ps []refPair) bool {
			return base == 126 && escaped(base, ps) == 2
		}},
		{"every value zero", make([]float64, 64), 0.25, func(base int, ps []refPair) bool {
			return base == 0 && escaped(base, ps) == 0
		}},
		{"exponents at 254 and 255", []float64{3e38, -inf, nan, -2e38, 1, 3.3e38}, 1, func(base int, ps []refPair) bool {
			return base == 127 && escaped(base, ps) == 5
		}},
		{"only exponents 254 and 255", []float64{3e38, -inf, nan, -2e38, 3.3e38}, 1, func(base int, ps []refPair) bool {
			return base == 254 && escaped(base, ps) == 0
		}},
		{"gaps of 63", spaced(4096, 64), 1.0 / 64, func(_ int, ps []refPair) bool { return maxGap(ps) == 63 }},
		{"two above base after a gap past 62", func() []float64 {
			v := make([]float64, 256)
			v[0], v[100] = 1.5, -5
			return v
		}(), 2.0 / 256, func(base int, ps []refPair) bool {
			return len(ps) == 2 && expOf(ps[1].f) == base+2 && escaped(base, ps) == 0
		}},
		{"gaps of 191 and more", spaced(4096, 192, 1000), 22.0 / 4096, func(_ int, ps []refPair) bool {
			return maxGap(ps) >= 191
		}},
		{"gaps past 2^14", spaced(1<<15, 1<<14+200), 0.001, func(_ int, ps []refPair) bool { return maxGap(ps) > 1<<14 }},
		{"dense re-key", append(randVec(rng, 300), nan, -inf, 0, 1e-40), 0, func(base int, ps []refPair) bool {
			return len(ps) == 304 && escaped(base, ps) > 3
		}},
	}
	for _, c := range cases {
		n, k := len(c.src), len(c.src)
		var payload []byte
		var enc *DeltaEncoder
		if c.ratio == 0 {
			enc = NewDeltaEncoder(0.1)
			payload = enc.Compress(nil, c.src)
		} else {
			payload, enc = firstSparse(c.ratio, c.src)
			k = enc.keepCount(n)
		}
		want3 := refEncodeV3(c.src, k)
		if !bytes.Equal(payload, gapCode(want3)) {
			t.Errorf("%s: the frame is not the reference layout of the specification's pairs", c.name)
			continue
		}
		if _, base, ps := pairsOf(payload); !c.shape(base, ps) {
			t.Errorf("%s: the frame (base %d, %d pairs) does not have the shape the case is for", c.name, base, len(ps))
		}
		got, err := foldFrame(payload)
		if err != nil || !sameBits(got, decodeV3(want3)) {
			t.Errorf("%s: the decode differs from the reference decode of the pairs (err %v)", c.name, err)
		}
		enc.Commit()
		if !sameBits(enc.ref, decodeV3(want3)) {
			t.Errorf("%s: the encoder's replica differs from the reference decode of the pairs", c.name)
		}
	}
}
