package chaos

import (
	"math"
	"testing"
)

// TestValidate: impossible probabilities, partitions naming a worker
// outside the cluster or pairing one with itself, and empty windows
// are refused, and so is a drop of 1, which no retransmission would
// survive; every other knob at its bounds is accepted.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		c    Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"every probability at its bounds", Config{Drop: 0.99, Duplicate: 0, Reorder: 1, Corrupt: 0.5}, true},
		{"drop of one", Config{Drop: 1}, false},
		{"one-iteration window", Config{Partitions: []Partition{{A: 0, B: 2, FromIter: 0, ToIter: 1}}}, true},
		{"drop over one", Config{Drop: 1.5}, false},
		{"negative corrupt", Config{Corrupt: -0.1}, false},
		{"negative duplicate", Config{Duplicate: -1}, false},
		{"reorder over one", Config{Reorder: 2}, false},
		{"self partition", Config{Partitions: []Partition{{A: 2, B: 2, FromIter: 0, ToIter: 1}}}, false},
		{"empty window", Config{Partitions: []Partition{{A: 0, B: 1, FromIter: 5, ToIter: 5}}}, false},
		{"negative window", Config{Partitions: []Partition{{A: 0, B: 1, FromIter: -1, ToIter: 5}}}, false},
		{"worker out of range", Config{Partitions: []Partition{{A: 0, B: 3, FromIter: 2, ToIter: 4}}}, false},
		{"negative worker", Config{Partitions: []Partition{{A: -1, B: 1, FromIter: 2, ToIter: 4}}}, false},
	}
	for _, c := range cases {
		err := c.c.Validate(3)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
}

// TestSevers: a partition cuts its pair in both directions for the
// iterations of its half-open window, and nothing else.
func TestSevers(t *testing.T) {
	c := Config{Partitions: []Partition{{A: 0, B: 1, FromIter: 5, ToIter: 8}}}
	for iter := 0; iter < 10; iter++ {
		want := iter >= 5 && iter < 8
		if got := c.Severs(0, 1, iter); got != want {
			t.Errorf("Severs(0, 1, %d) = %v, want %v", iter, got, want)
		}
		if got := c.Severs(1, 0, iter); got != want {
			t.Errorf("Severs(1, 0, %d) = %v, want %v", iter, got, want)
		}
		for _, link := range [][2]int{{0, 2}, {2, 0}, {1, 2}, {2, 1}, {0, 0}} {
			if c.Severs(link[0], link[1], iter) {
				t.Errorf("Severs(%d, %d, %d): link outside the partition cut", link[0], link[1], iter)
			}
		}
	}
	if (&Config{}).Severs(0, 1, 0) {
		t.Error("a config with no partitions severed a link")
	}
}

func TestLossy(t *testing.T) {
	for _, c := range []struct {
		c    Config
		want bool
	}{
		{Config{}, false},
		{Config{Duplicate: 0.5, Reorder: 0.5}, false},
		{Config{Drop: 0.1}, false},
		{Config{Corrupt: 0.1}, true},
		{Config{Partitions: []Partition{{A: 0, B: 1, FromIter: 0, ToIter: 1}}}, true},
	} {
		if got := c.c.Lossy(); got != c.want {
			t.Errorf("%+v: Lossy() = %v, want %v", c.c, got, c.want)
		}
	}
}

// TestFatePure: a fate is a function of the seed, the message's
// identity and the attempt number, and nothing else: the same key
// gives the same outcome, and changing any one of its fields gives
// another.
func TestFatePure(t *testing.T) {
	c := Config{Drop: 0.3, Duplicate: 0.3, Reorder: 0.3, Corrupt: 0.3, Seed: 7}
	m := Msg{Src: 1, Dst: 2, Kind: Update, Iter: 5, Chunk: 0, Gen: 0}
	base := c.Fate(m, 0)
	if again := c.Fate(m, 0); again != base {
		t.Fatalf("same key, different fates: %+v, %+v", base, again)
	}
	other := c
	other.Seed++
	variants := map[string]Outcome{
		"seed":    other.Fate(m, 0),
		"attempt": c.Fate(m, 1),
	}
	for name, edit := range map[string]func(*Msg){
		"src":   func(m *Msg) { m.Src = 3 },
		"dst":   func(m *Msg) { m.Dst = 0 },
		"kind":  func(m *Msg) { m.Kind = Token },
		"reply": func(m *Msg) { m.Kind |= Reply },
		"iter":  func(m *Msg) { m.Iter = 6 },
		"chunk": func(m *Msg) { m.Chunk = 1 },
		"gen":   func(m *Msg) { m.Gen = 1 },
	} {
		v := m
		edit(&v)
		variants[name] = c.Fate(v, 0)
	}
	for name, f := range variants {
		if f == base {
			t.Errorf("changing the %s left the fate %+v unchanged", name, f)
		}
	}
}

// TestFateRates: over 10⁵ identities each outcome fires at its rate
// within five binomial standard deviations, independently of the
// others, and Lag spreads uniformly over [0, 1).
func TestFateRates(t *testing.T) {
	const n = 100_000
	c := Config{Drop: 0.1, Duplicate: 0.25, Reorder: 0.5, Corrupt: 0.02, Seed: 400}
	var drop, dup, reorder, corrupt, both, lagLow int
	for i := 0; i < n; i++ {
		f := c.Fate(Msg{Src: i % 7, Dst: i % 5, Kind: Kind(i % 3), Iter: i / 35}, 0)
		drop += b2i(f.Drop)
		dup += b2i(f.Duplicate)
		reorder += b2i(f.Reorder)
		corrupt += b2i(f.Corrupt)
		both += b2i(f.Duplicate && f.Reorder)
		lagLow += b2i(f.Lag < 0.5)
		if f.Lag < 0 || f.Lag >= 1 {
			t.Fatalf("lag %g outside [0, 1)", f.Lag)
		}
	}
	for _, r := range []struct {
		name  string
		count int
		p     float64
	}{
		{"drop", drop, c.Drop}, {"duplicate", dup, c.Duplicate}, {"reorder", reorder, c.Reorder},
		{"corrupt", corrupt, c.Corrupt}, {"duplicate and reorder", both, c.Duplicate * c.Reorder},
		{"lag below one half", lagLow, 0.5},
	} {
		mean := n * r.p
		if sd := math.Sqrt(mean * (1 - r.p)); math.Abs(float64(r.count)-mean) > 5*sd {
			t.Errorf("%s fired %d times in %d, want %.0f ± %.0f", r.name, r.count, n, mean, 5*sd)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
