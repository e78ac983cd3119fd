// Command hopsweep expands a declarative scenario sweep — an axis grid
// of partial-spec patches over a base scenario — and runs every cell
// in parallel on the deterministic simulator, writing one
// machine-readable JSON report per cell plus an aggregate table.
// Reports are byte-identical across repeated runs and -parallel widths
// (DESIGN.md §4.4).
//
// Examples:
//
//	hopsweep -list                        # named built-in sweeps
//	hopsweep -name het-comp               # run a built-in grid
//	hopsweep -name scale-topo             # cluster size × scalable topologies
//	hopsweep -name het-comp -emit         # print its JSON (edit & rerun)
//	hopsweep -f mysweep.json -parallel 4 -out results/
//
// One scenario is one run: hoptrain -scenario spec.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hop"
	"hop/cmd/internal/profflag"
)

func main() {
	var (
		file     = flag.String("f", "", "sweep JSON file")
		name     = flag.String("name", "", "built-in sweep name (see -list)")
		list     = flag.Bool("list", false, "list built-in sweeps and exit")
		emit     = flag.Bool("emit", false, "print the selected sweep as JSON and exit (start a sweep file from a built-in)")
		parallel = flag.Int("parallel", 0, "max concurrent cells (0 = one goroutine per cell); any width yields byte-identical reports")
		outDir   = flag.String("out", "", "directory for per-cell JSON reports and aggregate.json (empty = table only)")

		computeWorkers = flag.Int("compute-workers", 0, "how many simulated workers' gradient steps run at once (0 = GOMAXPROCS); results are bit-identical at any width")
	)
	prof := profflag.Register()
	flag.Parse()
	hop.SetComputeWorkers(*computeWorkers)
	stopProf, err := prof.Start()
	if err != nil {
		fail(err)
	}
	defer stopProf()

	if *list {
		fmt.Println("built-in sweeps:")
		for _, sw := range hop.Sweeps() {
			cells, err := sw.Cells()
			if err != nil {
				fail(err)
			}
			fmt.Printf("  %-16s %d axes, %d cells\n", sw.Name, len(sw.Axes), len(cells))
		}
		return
	}

	var sw hop.Sweep
	switch {
	case *file != "" && *name != "":
		fail(fmt.Errorf("-f and -name are mutually exclusive"))
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		if sw, err = hop.ParseSweep(data); err != nil {
			fail(err)
		}
	case *name != "":
		var err error
		if sw, err = hop.LookupSweep(*name); err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("need -f <sweep.json>, -name <builtin> or -list (one scenario: hoptrain -scenario)"))
	}

	if *emit {
		js, err := sw.JSON()
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s\n", js)
		return
	}

	start := time.Now()
	res, err := hop.RunSweep(sw, *parallel)
	if err != nil {
		fail(err)
	}
	fmt.Printf("sweep %s: %d cells in %v (wall clock)\n\n", res.Name, len(res.Cells), time.Since(start).Round(time.Millisecond))
	res.RenderTable(os.Stdout)

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
		// Flattening cell ids can collide (labels may contain '_' or
		// characters that all map to '-'); refuse to silently overwrite
		// one cell's report with another's.
		names := map[string]string{"aggregate.json": "(the aggregate report)"}
		for _, c := range res.Cells {
			fn := cellFileName(c.ID)
			if prev, dup := names[fn]; dup {
				fail(fmt.Errorf("cells %q and %q both map to output file %s; rename the axis labels", prev, c.ID, fn))
			}
			names[fn] = c.ID
			path := filepath.Join(*outDir, fn)
			if err := os.WriteFile(path, append(append([]byte(nil), c.JSON...), '\n'), 0o644); err != nil {
				fail(err)
			}
		}
		agg, err := res.AggregateJSON()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, "aggregate.json"), append(agg, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("\nwrote %d cell reports + aggregate.json to %s\n", len(res.Cells), *outDir)
	}
}

// cellFileName flattens a cell id ("random6x/topk10") into a safe file
// name ("random6x_topk10.json").
func cellFileName(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r == '/':
			b.WriteByte('_')
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String() + ".json"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hopsweep:", err)
	os.Exit(1)
}
