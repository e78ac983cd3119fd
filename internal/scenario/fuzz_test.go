package scenario

// fuzz_test.go — hostile-bytes fuzzing of the scenario parser, the
// counterpart of the transport's FuzzFrameDecode for the declarative
// plane. Parse is strict JSON (unknown fields rejected), so the
// contract under arbitrary input is: never panic, and every accepted
// spec re-serializes stably — JSON(Parse(JSON(Parse(x)))) is
// byte-identical to JSON(Parse(x)), which is what keeps sweep cells
// and committed example files canonical. CI runs a short -fuzz smoke
// on top of the committed corpus.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioParse feeds arbitrary bytes through Parse, seeded from
// every committed example scenario plus malformed variants.
func FuzzScenarioParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example scenarios found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Damaged variants: truncation and an unknown field.
		f.Add(data[:len(data)/2])
		f.Add(append([]byte(`{"no_such_field": 1, `), data[1:]...))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"topology": {"kind": "expander", "workers": 64}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return // rejection is the expected outcome for damage
		}
		out, err := spec.JSON()
		if err != nil {
			t.Fatalf("accepted spec does not re-serialize: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("re-serialized spec rejected: %v\n%s", err, out)
		}
		out2, err := again.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("serialization not stable:\n%s\nvs\n%s", out, out2)
		}
	})
}

// TestFuzzSeedsParse guards the committed corpus against rot: every
// example scenario must parse, validate, and round-trip stably.
func TestFuzzSeedsParse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out, err := spec.JSON()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("%s round-trip: %v", p, err)
		}
		out2, err := again.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("%s: serialization not stable", p)
		}
	}
}
