// Command hopnode runs one live Hop worker over TCP. Start one process
// per worker; each needs the full peer address list.
//
// The worker's protocol configuration is a declarative scenario spec —
// the built-in default (ring of 4, SVM, 100 iterations) or a file
// loaded with -scenario (the same JSON documents hoptrain and hopsweep
// run on the simulator; DESIGN.md §4). Explicitly-set flags override
// the spec's axes — the flag table hoptrain shares
// (cmd/internal/specflag) — so one committed spec can drive a whole
// cluster while individual cells tweak, say, the codec.
//
// Example (3-worker ring on one host):
//
//	hopnode -id 0 -listen :7000 -peers 0=localhost:7000,1=localhost:7001,2=localhost:7002 -graph ring -workers 3 -iters 50 &
//	hopnode -id 1 -listen :7001 -peers 0=localhost:7000,1=localhost:7001,2=localhost:7002 -graph ring -workers 3 -iters 50 &
//	hopnode -id 2 -listen :7002 -peers 0=localhost:7000,1=localhost:7001,2=localhost:7002 -graph ring -workers 3 -iters 50
//
// The same cluster from a committed spec:
//
//	hopnode -id $i -listen :700$i -peers ... -scenario ring3.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hop"
	"hop/cmd/internal/profflag"
	"hop/cmd/internal/specflag"
	"hop/internal/counters"
	"hop/internal/live"
)

func main() {
	var (
		id        = flag.Int("id", 0, "this worker's id")
		listen    = flag.String("listen", ":0", "listen address")
		peers     = flag.String("peers", "", "comma-separated id=host:port list for all workers")
		dialWait  = flag.Duration("dial-wait", 30*time.Second, "how long to retry dialing peers")
		linger    = flag.Duration("linger", live.DefaultLinger, "after finishing, how long to keep serving slower neighbors before closing")
		timeScale = flag.Float64("time-scale", 1, "scale the spec's injected heterogeneity delay")
		rejoin    = flag.Bool("rejoin", false, "rejoin a running cluster as a restarted worker (clears this worker's own crash schedule)")
	)
	// Worker placement has no live meaning; 1 machine always satisfies
	// topology validation.
	specFlags := specflag.Register(flag.CommandLine, hop.Scenario{
		Workload: "svm",
		Topology: hop.ScenarioTopology{Kind: "ring", Workers: 4, Machines: 1},
		MaxIter:  100,
		Seed:     1,
	})
	prof := profflag.Register()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fail(err)
	}
	defer stopProf()

	spec, err := specFlags.Spec()
	if err != nil {
		fail(err)
	}
	cfg, err := hop.ResolveScenarioLiveWorker(spec, *id, hop.ScenarioLiveOptions{TimeScale: *timeScale})
	if err != nil {
		fail(err)
	}
	cfg.ListenAddr = *listen
	if *rejoin {
		cfg.Config = cfg.Restarted()
	}
	cfg.OnIteration = func(iter int, loss float64) {
		if iter%10 == 0 {
			fmt.Printf("worker %d: iteration %d, train loss %.4f\n", *id, iter, loss)
		}
	}

	addrs, err := parsePeers(*peers)
	if err != nil {
		fail(err)
	}

	w, err := hop.NewLiveWorker(cfg)
	if err != nil {
		fail(err)
	}
	defer w.Close()
	fmt.Printf("worker %d listening on %s\n", *id, w.Addr())

	if err := w.Connect(addrs, *dialWait); err != nil {
		fail(err)
	}
	start := time.Now()
	loss, err := w.Run()
	if errors.Is(err, hop.ErrCrashed) {
		// A scheduled fault is an intentional outcome: exit cleanly so
		// the deferred Close announces the death to the neighbors, which
		// reform the graph and keep training.
		fmt.Printf("worker %d halted by scheduled fault at iteration %d\n", *id, cfg.Faults[*id].CrashIter)
		return
	}
	if err != nil {
		fail(err)
	}
	// Say goodbye, and keep the listener serving until every peer has
	// said goodbye too, so their final frames do not hit a closed socket.
	if !w.Finish(*linger) {
		fmt.Fprintf(os.Stderr, "hopnode: worker %d: neighbors still running after %v linger\n", *id, *linger)
	}
	fmt.Printf("worker %d finished %d iterations in %v, final train loss %.4f\n",
		*id, cfg.MaxIter, time.Since(start).Round(time.Millisecond), loss)
	fmt.Printf("worker %d wire: %s\n", *id, counters.String(w.WireStats()))
	fmt.Printf("worker %d protocol: %s\n", *id, counters.String(w.Stats()))
}

func parsePeers(s string) (map[int]string, error) {
	addrs := map[int]string{}
	if s == "" {
		return addrs, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		addrs[id] = kv[1]
	}
	return addrs, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hopnode:", err)
	os.Exit(1)
}
