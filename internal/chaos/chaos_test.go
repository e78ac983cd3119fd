package chaos

import "testing"

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
