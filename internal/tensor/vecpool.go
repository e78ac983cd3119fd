package tensor

// vecpool.go — recycled parameter vectors. The live data path turns
// over one model-sized []float64 per network message (decode replica
// copy) plus one per iteration (the enqueued snapshot); at loopback
// rates that is hundreds of MB/s of garbage and a measurable GC share
// of the iteration budget. The pool hands those buffers back and forth
// instead.
//
// Contract: GetVec returns a vector with *unspecified contents* — the
// caller must overwrite every element before reading any. PutVec
// transfers ownership to the pool; the caller must hold no other
// reference. The live runtime backs core.Runtime's GetParams and
// RecycleParams with it; the simulator keeps its own free list per
// cluster (cluster.Host), under the same ownership contract.
//
// A mutex-guarded free list is used instead of sync.Pool so the steady
// state is truly allocation-free (sync.Pool's Put boxes the slice
// header on every call). The list is capped; beyond the cap buffers
// fall back to the GC, so an unusual burst cannot pin memory forever.

import "sync"

// maxPooledVecs bounds the free list. Live steady state needs roughly
// (queued updates + in-flight decodes) buffers per worker; 256 covers any
// realistic single-process cluster while capping retained memory.
const maxPooledVecs = 256

var (
	vecMu   sync.Mutex
	vecFree [][]float64
)

// GetVec returns a length-n vector with unspecified contents, reusing
// a pooled buffer when one is large enough. Callers must fully
// overwrite it before reading.
func GetVec(n int) []float64 {
	vecMu.Lock()
	// Scan newest-first: in steady state every pooled buffer has the
	// model dimension and the first probe hits.
	for i := len(vecFree) - 1; i >= 0; i-- {
		if v := vecFree[i]; cap(v) >= n {
			last := len(vecFree) - 1
			vecFree[i] = vecFree[last]
			vecFree[last] = nil
			vecFree = vecFree[:last]
			vecMu.Unlock()
			return v[:n]
		}
	}
	vecMu.Unlock()
	return make([]float64, n)
}

// PutVec recycles v. The caller must not touch v (or any alias of it)
// afterwards. Nil and zero-capacity slices are ignored.
func PutVec(v []float64) {
	if cap(v) == 0 {
		return
	}
	vecMu.Lock()
	if len(vecFree) < maxPooledVecs {
		vecFree = append(vecFree, v[:0])
	}
	vecMu.Unlock()
}
