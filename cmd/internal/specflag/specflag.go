// Package specflag gives the commands one shared table of
// scenario-shaping flags. A run is a scenario.Spec: the command's
// built-in default, or the file named by -scenario, with every flag the
// user explicitly set applied on top as an override. A flag left alone
// changes nothing, so `cmd <flags>` and `cmd -scenario <the equivalent
// spec>` are the same run. Values are not checked here — the spec's own
// validation names a bad graph, workload or protocol.
package specflag

import (
	"flag"
	"os"
	"time"

	"hop/internal/scenario"
)

// Flags holds the registered flags.
type Flags struct {
	fs   *flag.FlagSet
	def  scenario.Spec
	file *string
	// overrides are applied in registration order, each only when its
	// flag was explicitly set.
	overrides []override
}

type override struct {
	name  string
	apply func(*scenario.Spec)
}

// add records how flag name, whose parsed value is *v, overrides a spec.
func add[T any](f *Flags, name string, v *T, apply func(*scenario.Spec, T)) {
	f.overrides = append(f.overrides, override{name, func(s *scenario.Spec) { apply(s, *v) }})
}

// Register adds the flags to fs; call it before fs.Parse. def is the
// spec the command runs when no flag is set, and supplies the defaults
// the usage text shows.
func Register(fs *flag.FlagSet, def scenario.Spec) *Flags {
	type spec = scenario.Spec
	f := &Flags{fs: fs, def: def}
	f.file = fs.String("scenario", "", "declarative scenario spec JSON (DESIGN.md §4); explicitly-set flags below override its axes")

	add(f, "graph", fs.String("graph", def.Topology.Kind, "ring | ring-based | double-ring | complete | star | chain | directed-ring | hier-ring | hier-allreduce | expander | setting1 | setting2 | setting3"),
		func(s *spec, v string) { s.Topology.Kind = v })
	add(f, "workers", fs.Int("workers", def.Topology.Workers, "worker count (ignored by settingN graphs)"),
		func(s *spec, v int) { s.Topology.Workers = v })
	add(f, "machines", fs.Int("machines", def.Topology.Machines, "machine count for placement"),
		func(s *spec, v int) { s.Topology.Machines = v })
	add(f, "workload", fs.String("workload", def.Workload, "cnn | svm | quadratic"),
		func(s *spec, v string) { s.Workload = v })

	add(f, "protocol", fs.String("protocol", "standard", "standard | notify-ack | prague | ps | adpsgd"),
		func(s *spec, v string) { s.Protocol.Mode = v })
	add(f, "group-size", fs.Int("group-size", 0, "with -protocol prague: partial all-reduce group size"),
		func(s *spec, v int) { s.Protocol.GroupSize = v })
	add(f, "group-quorum", fs.Int("group-quorum", 0, "with -protocol prague: member updates a reduce waits for (0 = full group)"),
		func(s *spec, v int) { s.Protocol.GroupQuorum = v })
	add(f, "serial", fs.Bool("serial", false, "serial computation graph (Fig. 2a)"),
		func(s *spec, v bool) { s.Protocol.Serial = v })
	add(f, "maxig", fs.Int("maxig", 0, "token-queue max iteration gap (0 = no token queues)"),
		func(s *spec, v int) { s.Protocol.MaxIG = v })
	add(f, "backup", fs.Int("backup", 0, "backup workers N_buw"),
		func(s *spec, v int) { s.Protocol.Backup = v })
	add(f, "send-check", fs.Bool("send-check", false, "§6.2(b) receiver-iteration send check"),
		func(s *spec, v bool) { s.Protocol.SendCheck = v })
	add(f, "staleness", fs.Int("staleness", 0, "staleness bound s (0 = off)"),
		func(s *spec, v int) { s.Protocol.Staleness = v })
	add(f, "max-jump", fs.Int("max-jump", 0, "skipping iterations (§5): max iterations per jump (0 = off)"),
		func(s *spec, v int) { s.Protocol.SkipMaxJump = v })

	add(f, "slow", fs.String("slow", "none", "none | random | det"),
		func(s *spec, v string) { s.Hetero.Kind = v })
	add(f, "factor", fs.Float64("factor", 0, "slowdown factor (0 = 6 for random, 4 for det)"),
		func(s *spec, v float64) { s.Hetero.Factor = v })
	add(f, "prob", fs.Float64("prob", 0, "random slowdown probability (0 = 1/workers)"),
		func(s *spec, v float64) { s.Hetero.Prob = v })
	add(f, "slow-worker", fs.Int("slow-worker", 0, "worker for deterministic slowdown"),
		func(s *spec, v int) { s.Hetero.Workers = []int{v} })

	add(f, "compress", fs.String("compress", "none", "wire codec for update payloads: none | float32 | topk[:ratio]"),
		func(s *spec, v string) { s.Compression = v })
	add(f, "compute", fs.Duration("compute", 0, "base compute time per iteration (0 = per workload)"),
		func(s *spec, v time.Duration) { s.ComputeBase = scenario.Duration(v) })
	add(f, "payload", fs.Int("payload", 0, "update payload bytes (0 = per workload)"),
		func(s *spec, v int) { s.PayloadBytes = v })
	add(f, "deadline", fs.Duration("deadline", time.Duration(def.Deadline), "virtual-time deadline (0 = use -iters)"),
		func(s *spec, v time.Duration) { s.Deadline = scenario.Duration(v) })
	add(f, "iters", fs.Int("iters", def.MaxIter, "max iterations per worker (0 = run to deadline)"),
		func(s *spec, v int) { s.MaxIter = v })
	add(f, "seed", fs.Int64("seed", def.Seed, "scenario seed"),
		func(s *spec, v int64) { s.Seed = v })
	return f
}

// Spec returns the spec the parsed flags describe: the -scenario file
// (or the registered default) with the explicitly-set flags applied.
func (f *Flags) Spec() (scenario.Spec, error) {
	spec := f.def
	if *f.file != "" {
		data, err := os.ReadFile(*f.file)
		if err != nil {
			return scenario.Spec{}, err
		}
		if spec, err = scenario.Parse(data); err != nil {
			return scenario.Spec{}, err
		}
	}
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	for _, o := range f.overrides {
		if set[o.name] {
			o.apply(&spec)
		}
	}
	return spec, nil
}
