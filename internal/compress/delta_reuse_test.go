package compress

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hop/internal/tensor"
)

// TestDecodeIntoMatchesDecode feeds every codec kind a dirty reused
// buffer and requires DecodeInto to produce exactly what a fresh
// Decode does — for TopK, DeltaDecoder.DecodeInto against Decode on a
// decoder whose replica is the same, so the stale coordinates of the
// buffer must not leak into the reconstruction.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := make([]float64, 600)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	topk, _ := firstSparse(0.1, src)
	for _, spec := range []struct {
		name    string
		kind    Kind
		payload []byte
	}{
		{"none", None, NewNone().Compress(nil, src)},
		{"float32", Float32, NewFloat32().Compress(nil, src)},
		{"topk", TopK, topk},
	} {
		decodeInto := func(dst []float64) ([]float64, error) {
			if spec.kind != TopK {
				return DecodeInto(dst, spec.kind, spec.payload)
			}
			dec := DeltaDecoder{ref: make([]float64, len(src))}
			return dec.DecodeInto(dst, spec.payload)
		}
		want, err := decodeInto(nil)
		if err != nil {
			t.Fatalf("%s: Decode: %v", spec.name, err)
		}
		// Dirty, oversized reuse buffer: every element poisoned.
		dirty := make([]float64, 2048)
		for i := range dirty {
			dirty[i] = 1e300
		}
		got, err := decodeInto(dirty)
		if err != nil {
			t.Fatalf("%s: DecodeInto: %v", spec.name, err)
		}
		if &got[0] != &dirty[0] {
			t.Fatalf("%s: DecodeInto did not reuse the buffer", spec.name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: length %d, want %d", spec.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: coordinate %d: %g, want %g", spec.name, i, got[i], want[i])
			}
		}
	}
}

// TestDeltaDecodeIntoStreamReuse runs a multi-frame delta stream
// through one retained buffer and checks every reconstruction against
// a parallel fresh-allocating decoder.
func TestDeltaDecodeIntoStreamReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, frames = 500, 8
	enc := NewDeltaEncoder(0.1)
	var reuse, x []float64
	x = make([]float64, n)
	var dec, ref DeltaDecoder
	for f := 0; f < frames; f++ {
		for i := range x {
			x[i] += rng.NormFloat64()
		}
		payload := enc.Compress(nil, x)
		enc.Commit()
		want, err := ref.Decode(payload)
		if err != nil {
			t.Fatalf("frame %d: Decode: %v", f, err)
		}
		reuse, err = dec.DecodeInto(reuse, payload)
		if err != nil {
			t.Fatalf("frame %d: DecodeInto: %v", f, err)
		}
		if !floatsEqual(reuse, want) {
			t.Fatalf("frame %d: reused-buffer reconstruction diverged", f)
		}
	}
}

// TestDeltaEncoderAllocatesNothingAcrossGC: a warm stream's sparse frame
// allocates nothing even when collections run between frames — its
// selection scratch is the encoder's own, not a sync.Pool entry the
// collector drops (two cycles empty a pool, victim cache included).
func TestDeltaEncoderAllocatesNothingAcrossGC(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	enc := NewDeltaEncoder(0.1)
	x := make([]float64, 4096)
	dst := make([]byte, 0, 8+8*len(x))
	step := func() {
		for i := range x {
			x[i] += rng.NormFloat64()
		}
		dst = enc.Compress(dst[:0], x)
		enc.Commit()
	}
	for i := 0; i < 5; i++ {
		step() // past the dense warm start
	}
	if a := testing.AllocsPerRun(10, func() {
		runtime.GC()
		runtime.GC()
		step()
	}); a != 0 {
		t.Fatalf("a sparse frame after two collections allocated %v times", a)
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStageSharedSiblingStreams pins the shared-encode contract the
// transport relies on: a rider stream that adopts the leader's payload
// via StageShared + Commit keeps a bit-identical replica, so when the
// two streams later encode independently they still produce identical
// bytes.
func TestStageSharedSiblingStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, frames = 800, 10
	leader := NewDeltaEncoder(0.1)
	rider := NewDeltaEncoder(0.1)
	x := make([]float64, n)
	for f := 0; f < frames; f++ {
		for i := range x {
			x[i] += rng.NormFloat64()
		}
		payload := leader.Compress(nil, x)
		if f%3 == 2 {
			// Every third frame the rider encodes for itself; the bytes
			// must match the leader's, proving the adopted frames kept
			// the replicas in lockstep.
			own := rider.Compress(nil, x)
			if !bytes.Equal(own, payload) {
				t.Fatalf("frame %d: rider's own encoding diverged from leader", f)
			}
		} else {
			rider.StageShared(payload, len(x))
		}
		leader.Commit()
		rider.Commit()
	}
}

// TestDecodeIntoPooledRace hammers the tensor vector pool from
// concurrent delta streams under -race: each goroutine decodes its own
// stream into pooled buffers, verifies the reconstruction, and returns
// the buffer — the live receive path's exact ownership hand-off.
func TestDecodeIntoPooledRace(t *testing.T) {
	const n, frames, workers = 300, 20, 8
	// One shared, read-only stream of frames.
	enc := NewDeltaEncoder(0.1)
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(59))
	var payloads [][]byte
	var wants [][]float64
	var ref DeltaDecoder
	for f := 0; f < frames; f++ {
		for i := range x {
			x[i] += rng.NormFloat64()
		}
		p := enc.Compress(nil, x)
		enc.Commit()
		payloads = append(payloads, p)
		want, err := ref.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dec DeltaDecoder
			for f, p := range payloads {
				buf, err := dec.DecodeInto(tensor.GetVec(0), p)
				if err != nil {
					t.Errorf("frame %d: %v", f, err)
					return
				}
				if !floatsEqual(buf, wants[f]) {
					t.Errorf("frame %d: pooled-buffer reconstruction diverged", f)
					return
				}
				tensor.PutVec(buf)
			}
		}()
	}
	wg.Wait()
}
