package core

import (
	"sync"
	"testing"

	"hop/internal/graph"
)

// allPairsDist is the oracle the per-pair Bounds is checked against:
// a BFS from every source, dist[s][t] = length(Path s→t), -1 when t is
// unreachable from s.
func allPairsDist(g *graph.Graph) [][]int {
	dist := make([][]int, g.N())
	for s := range dist {
		d := make([]int, g.N())
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			for _, w := range g.Out(queue[0]) {
				if d[w] == -1 {
					d[w] = d[queue[0]] + 1
					queue = append(queue, w)
				}
			}
		}
		dist[s] = d
	}
	return dist
}

// TestBoundsMatchAllPairsOracle pins Table 1 as computed per pair to
// the same rows evaluated on a full distance matrix, for every ordered
// pair of every topology kind under every setting.
func TestBoundsMatchAllPairsOracle(t *testing.T) {
	path := graph.New("directed-path", 4) // not strongly connected: -1 distances
	for i := 0; i < 3; i++ {
		path.AddEdge(i, i+1)
	}
	topologies := []*graph.Graph{
		graph.Ring(8), graph.DirectedRing(7), graph.Chain(6), graph.Star(6),
		graph.Complete(5), graph.RingBased(8), graph.DoubleRing(8),
		graph.HierRing(24, 4), graph.HierAllReduce(24, 4), graph.Expander(32, 4, 600),
		graph.Setting1(), graph.Setting2(), graph.Setting3(), path,
	}
	settings := []struct {
		name string
		cfg  Config
	}{
		{"standard", Config{Staleness: -1}},
		{"staleness", Config{Staleness: 2}},
		{"max_ig", Config{Staleness: -1, MaxIG: 3}},
		{"backup", Config{Staleness: -1, MaxIG: 2, Backup: 1}},
		{"notify-ack", Config{Mode: ModeNotifyAck, Staleness: -1}},
	}
	for _, g := range topologies {
		dist := allPairsDist(g)
		for _, s := range settings {
			cfg := s.cfg
			cfg.Graph = g
			b := NewBounds(cfg)
			b0 := 1
			switch {
			case cfg.Backup > 0:
				b0 = Unbounded
			case cfg.Staleness >= 0:
				b0 = cfg.Staleness + 1
			}
			for i := 0; i < g.N(); i++ {
				for j := 0; j < g.N(); j++ {
					dJI, dIJ := dist[j][i], dist[i][j]
					var gap int
					switch {
					case i == j:
						gap = 0
					case cfg.Mode == ModeNotifyAck:
						gap = minBound(dJI, mulBound(2, dIJ))
					case cfg.MaxIG <= 0:
						gap = mulBound(b0, dJI)
					default:
						gap = minBound(mulBound(b0, dJI), mulBound(cfg.MaxIG, dIJ))
					}
					if got := b.Gap(i, j); got != gap {
						t.Fatalf("%s/%s: Gap(%d,%d) = %d, oracle %d", g.Name, s.name, i, j, got, gap)
					}
					tokens := Unbounded
					if cfg.MaxIG > 0 {
						tokens = cfg.MaxIG * (dIJ + 1)
					}
					if got := b.TokenCapacity(i, j); got != tokens {
						t.Fatalf("%s/%s: TokenCapacity(%d,%d) = %d, oracle %d", g.Name, s.name, i, j, got, tokens)
					}
				}
			}
		}
	}
}

// TestBoundsConcurrentQueries backs the doc claim that a Bounds may be
// queried from several goroutines at once (run under -race).
func TestBoundsConcurrentQueries(t *testing.T) {
	g := graph.Expander(64, 4, 600)
	b := NewBounds(Config{Graph: g, Staleness: -1, MaxIG: 2})
	want := make([]int, g.N()*g.N())
	for k := range want {
		want[k] = b.Gap(k/g.N(), k%g.N())
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range want {
				if got := b.Gap(k/g.N(), k%g.N()); got != want[k] {
					t.Errorf("concurrent Gap(%d,%d) = %d, want %d", k/g.N(), k%g.N(), got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}
