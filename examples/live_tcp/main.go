// Live-TCP example: runs a real decentralized training cluster — one
// goroutine per worker, real binary-framed TCP messages on loopback —
// using the live runtime (no simulator involved). The same protocol
// state machine (update queues, token queues, backup workers;
// core.Protocol, DESIGN.md §5) that the simulated experiments use
// drives real sockets here, with float32 wire compression negotiated
// per connection; cmd/hopnode runs the same worker one-per-process
// across machines, and hop.RunLiveCluster does the bind/mesh/run/join
// choreography in one call.
package main

import (
	"fmt"
	"log"
	"time"
)

import "hop"

func main() {
	const (
		n       = 6
		maxIter = 60
	)
	g := hop.Ring(n)

	comp, err := hop.ParseCompression("float32")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("starting %d live workers over loopback TCP (ring, backup-1, tokens, %s wire codec)...\n", n, comp)

	// The protocol knobs are the same hop.Config the simulator runs,
	// stated once for the whole cluster; each worker adds only what a
	// socket-backed process needs.
	proto := hop.Config{
		Graph:       g,
		MaxIG:       3,
		Backup:      1,
		SendCheck:   true,
		MaxIter:     maxIter,
		Compression: comp,
	}
	cfgs := make([]hop.LiveWorkerConfig, n)
	for i := 0; i < n; i++ {
		cfg := hop.LiveWorkerConfig{
			Config:     proto,
			ID:         i,
			ListenAddr: "127.0.0.1:0",
			Trainer:    hop.NewQuadratic([]float64{float64(i), 0, 0}, []float64{1, 2, 3}, 0.2, 0.05),
		}
		cfg.Seed = int64(i) + 1
		if i == 0 {
			// Worker 0 is artificially slow: backup workers keep the
			// rest of the ring moving.
			cfg.ComputeDelay = func(int) time.Duration { return 2 * time.Millisecond }
		}
		cfgs[i] = cfg
	}

	res, err := hop.RunLiveCluster(cfgs, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nall %d workers completed %d iterations in %v (real time)\n",
		n, maxIter, res.Duration.Round(time.Millisecond))
	for i, w := range res.Workers {
		p := w.Params()
		fmt.Printf("  worker %d: params=[%.3f %.3f %.3f] last-train-loss=%.4f\n",
			i, p[0], p[1], p[2], res.Losses[i])
	}
	ws := res.WireStats()
	fmt.Printf("\nwire: update payloads %d bytes compressed vs %d raw (%.1fx saved by %s)\n",
		ws.WireUpdateBytesSent, ws.RawUpdateBytesSent, ws.CompressionRatio(), comp)
	fmt.Println("replicas converged to the shared optimum over real TCP — no simulator.")
}
