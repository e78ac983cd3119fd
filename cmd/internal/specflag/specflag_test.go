package specflag

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hop/internal/scenario"
)

// def is the test commands' built-in spec.
var def = scenario.Spec{
	Workload: "svm",
	Topology: scenario.Topology{Kind: "ring", Workers: 4, Machines: 1},
	MaxIter:  100,
	Seed:     1,
}

// tryParse runs args through a fresh flag set.
func tryParse(t *testing.T, args ...string) (scenario.Spec, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, def)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.Spec()
}

// parse is tryParse for arguments that must yield a spec.
func parse(t *testing.T, args ...string) scenario.Spec {
	t.Helper()
	spec, err := tryParse(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// specFile writes doc to a temp file and parses it as the reference.
func specFile(t *testing.T, doc string) (string, scenario.Spec) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return path, spec
}

func TestFlagsEqualTheEquivalentSpec(t *testing.T) {
	_, want := specFile(t, `{
		"workload": "svm",
		"topology": {"kind": "ring", "workers": 8, "machines": 1},
		"protocol": {"max_ig": 4, "backup": 1, "send_check": true, "skip_max_jump": 6},
		"max_iter": 100,
		"seed": 3
	}`)
	got := parse(t, "-graph", "ring", "-workers", "8", "-maxig", "4", "-backup", "1", "-send-check", "-max-jump", "6", "-seed", "3")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags gave\n%+v\nthe equivalent spec is\n%+v", got, want)
	}
	if got := parse(t); !reflect.DeepEqual(got, def) {
		t.Errorf("no flags gave %+v, want the default spec %+v", got, def)
	}
}

func TestOnlySetFlagsOverrideTheFile(t *testing.T) {
	path, base := specFile(t, `{
		"name": "committed",
		"workload": "quadratic",
		"topology": {"kind": "ring-based", "workers": 6, "machines": 2},
		"protocol": {"max_ig": 3, "backup": 1, "staleness": 0, "skip_max_jump": 5},
		"hetero": {"kind": "det", "factor": 4},
		"compression": "float32",
		"max_iter": 60,
		"seed": 7
	}`)
	if got := parse(t, "-scenario", path); !reflect.DeepEqual(got, base) {
		t.Errorf("no override flags changed the file's spec:\n%+v\nvs\n%+v", got, base)
	}
	want := base
	want.Protocol.Backup = 2
	if got := parse(t, "-scenario", path, "-backup", "2"); !reflect.DeepEqual(got, want) {
		t.Errorf("-backup 2 gave\n%+v\nwant backup changed and nothing else:\n%+v", got, want)
	}
	want = base
	want.Protocol.Backup = 0
	if got := parse(t, "-scenario", path, "-backup", "0"); !reflect.DeepEqual(got, want) {
		t.Errorf("-backup 0 gave\n%+v\nwant\n%+v", got, want)
	}
}

// TestBadNamesFailInTheScenarioPackage: the flag layer passes strings
// through, so the one copy of each "unknown ..." message is the spec's
// (core's, for the mode names the spec reads from it).
func TestBadNamesFailInTheScenarioPackage(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-graph", "torus", `scenario: unknown topology kind "torus"`},
		{"-workload", "transformer", `scenario: unknown workload "transformer"`},
		{"-protocol", "quantum", `core: unknown protocol mode "quantum"`},
		{"-slow", "cosmic", `scenario: unknown hetero kind "cosmic"`},
		{"-compress", "gzip", `scenario: `},
	} {
		err := parse(t, c.flag, c.value).Validate()
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s %s: error %v, want prefix %q", c.flag, c.value, err, c.want)
		}
	}
}

func TestPragueAndHeteroFlags(t *testing.T) {
	got := parse(t, "-protocol", "prague", "-group-size", "4", "-slow", "det", "-slow-worker", "2")
	if got.Protocol.Mode != "prague" || got.Protocol.GroupSize != 4 {
		t.Errorf("-protocol prague -group-size 4: %+v", got.Protocol)
	}
	if !reflect.DeepEqual(got.Hetero, scenario.Hetero{Kind: "det", Workers: []int{2}}) {
		t.Errorf("hetero %+v", got.Hetero)
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
	if got := parse(t, "-protocol", "prague", "-group-size", "2"); got.Protocol.GroupSize != 2 {
		t.Errorf("-group-size 2: %+v", got.Protocol)
	}
}

func TestScenarioFileErrors(t *testing.T) {
	if _, err := tryParse(t, "-scenario", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing scenario file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"wokload": "svm"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tryParse(t, "-scenario", path); err == nil || !strings.Contains(err.Error(), "scenario: parse") {
		t.Errorf("typoed field: %v", err)
	}
}
