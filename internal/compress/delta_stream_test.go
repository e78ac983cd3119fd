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
// damaged in the way the top three bits pick (hostile), and refuses it.
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
			t.Fatalf("frame %d (op %#x): decode differs from the v3 reference decode (err %v)", f, op, err)
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
			probe := DeltaDecoder{ref: append([]float64(nil), dec.ref...)}
			if _, err := probe.Decode(hostile(payload, int(op>>5))); err == nil {
				t.Fatalf("frame %d (op %#x): damaged frame accepted", f, op)
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
	scriptHostile = []byte{opDrift, opDrift | opHostile, opDrift | opHostile | 1<<5, opNaN | opHostile | 2<<5,
		opDrift | opHostile | 3<<5, opResize | opHostile | 4<<5, opDrift | opHostile | 4<<5, opResize | opHostile}
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
