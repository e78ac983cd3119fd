package cluster

// check.go — the invariants every simulated run keeps, checked while it
// runs whenever the binary is a test (testing.Testing), so every
// simulated run in `go test ./...` is also an invariant check:
//
//   - an observed gap never exceeds Table 1's bound (Theorem 1);
//   - a token queue never holds more than Theorem 2's capacity, across
//     deaths, until a worker rejoins (see rejoined);
//   - the loss stays finite — the free list NaN-fills what it takes
//     back under test, so this also catches a read after release
//     (DESIGN.md §5.1);
//   - the cluster never deadlocks, except AD-PSGD on a non-bipartite
//     graph, whose deadlock is the §5 claim FigDeadlock reproduces.
//
// A violation panics, which fails whichever test started the run. A
// nil checker, what every run outside a test gets, does nothing.

import (
	"fmt"
	"math"

	"hop/internal/core"
)

type checker struct {
	h      *Host
	nbrs   [][]int // each worker's graph neighbors
	gap    [][]int // gap[w][k] bounds Iter(w) − Iter(nbrs[w][k])
	tokens [][]int // tokens[w][k] caps TokenQ(nbrs[w][k]→w)
	// gaps is whether the gap bounds apply: Table 1 covers the modes
	// that synchronize along graph edges, not Prague's random groups or
	// AD-PSGD's pairwise averaging, on a fixed graph, so the checks stop
	// at the first crash.
	gaps bool
	// rejoined ends the token checks, which hold across deaths but not
	// past a rejoin: the rejoiner enters one past its newest
	// in-neighbor, which can be more than max_ig ahead of a lagging one,
	// and Theorem 2's capacities compose along paths through it
	// (CHANGES.md, FOUND).
	rejoined bool
	// deadlocks is whether a deadlock is the expected outcome.
	deadlocks bool
}

// newChecker builds the checker of h's run of cfg.
func newChecker(h *Host, cfg core.Config) *checker {
	g := cfg.Graph
	b := core.NewBounds(cfg)
	c := &checker{
		h:         h,
		nbrs:      make([][]int, g.N()),
		gap:       make([][]int, g.N()),
		tokens:    make([][]int, g.N()),
		gaps:      cfg.Mode != core.ModePrague && cfg.Mode != core.ModeADPSGD,
		deadlocks: cfg.Mode == core.ModeADPSGD && !g.IsBipartite(),
	}
	for w := range c.nbrs {
		c.nbrs[w] = g.Neighbors(w)
		for _, j := range c.nbrs[w] {
			c.gap[w] = append(c.gap[w], b.Gap(w, j))
			c.tokens[w] = append(c.tokens[w], b.TokenCapacity(j, w))
		}
	}
	return c
}

// advanced checks worker w's entry into iteration iter.
func (c *checker) advanced(w, iter int) {
	if c == nil {
		return
	}
	c.tokenCheck(w)
	for k, j := range c.nbrs[w] {
		if g := iter - c.h.gaps.Iter(j); c.gaps && g > c.gap[w][k] {
			c.fail("worker %d entered iteration %d, %d ahead of worker %d: Table 1 bounds the gap at %d", w, iter, g, j, c.gap[w][k])
		}
	}
}

// tokenCheck checks the token queues worker w's current instance
// consumes: the most each ever held against its capacity.
func (c *checker) tokenCheck(w int) {
	if c == nil || c.rejoined {
		return
	}
	for k, j := range c.nbrs[w] {
		if _, high, ok := c.h.protos[w].Tokens(j); ok && high > c.tokens[w][k] {
			c.fail("TokenQ(%d→%d) held %d tokens: Theorem 2 caps it at %d", j, w, high, c.tokens[w][k])
		}
	}
}

// iterated checks the loss of worker w's finished iteration.
func (c *checker) iterated(w, iter int, loss float64) {
	if c != nil && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
		c.fail("worker %d finished iteration %d with loss %g", w, iter, loss)
	}
}

// crashed notes that a worker halted: the graph the gap bounds are
// computed on no longer describes the cluster.
func (c *checker) crashed() {
	if c != nil {
		c.gaps = false
	}
}

// restarting checks worker w's halted instance's token queues, the
// last check they get (see rejoined).
func (c *checker) restarting(w int) {
	if c != nil {
		c.tokenCheck(w)
		c.rejoined = true
	}
}

// finished checks the run's end: every instance's token queues, and
// how the run stopped.
func (c *checker) finished(deadlock error) {
	if c == nil {
		return
	}
	for w := range c.nbrs {
		c.tokenCheck(w)
	}
	if deadlock != nil && !c.deadlocks {
		c.fail("%v", deadlock)
	}
}

func (c *checker) fail(format string, args ...any) {
	panic(fmt.Sprintf("cluster: invariant violated: "+format, args...))
}
