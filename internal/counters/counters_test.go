package counters_test

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"hop/internal/core"
	"hop/internal/counters"
	"hop/internal/netsim"
	"hop/internal/transport"
)

// tables are the repo's counter tables, named as DESIGN.md §2.5 names
// them.
var tables = []struct {
	name  string
	zero  any
	check func(*testing.T)
}{
	{"core.Stats", core.Stats{}, checkTable[core.Stats]},
	{"netsim.Stats", netsim.Stats{}, checkTable[netsim.Stats]},
	{"transport.Stats", transport.Stats{}, checkTable[transport.Stats]},
}

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// TestCounterSchema holds every counter table to what the package's
// one loop assumes: int or int64 fields with unique snake_case json
// names. It then fills two tables with distinct values, so a counter
// that Add, Load or String left out reads wrong.
func TestCounterSchema(t *testing.T) {
	for _, tb := range tables {
		t.Run(tb.name, tb.check)
	}
}

func checkTable[T any](t *testing.T) {
	var a, b T
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	seen := map[string]bool{}
	var want []string
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		if k := f.Type.Kind(); k != reflect.Int && k != reflect.Int64 {
			t.Fatalf("field %s has kind %v, want int or int64", f.Name, k)
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !snakeCase.MatchString(name) || seen[name] {
			t.Errorf("field %s: json name %q is not a unique snake_case name", f.Name, name)
		}
		seen[name] = true
		va.Field(i).SetInt(int64(1 + i))
		vb.Field(i).SetInt(int64(100 + i))
		want = append(want, fmt.Sprintf("%s=%d", name, 1+i))
	}

	sum := a
	counters.Add(&sum, b)
	vs := reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		if got, want := vs.Field(i).Int(), va.Field(i).Int()+vb.Field(i).Int(); got != want {
			t.Errorf("Add: %s = %d, want %d", vs.Type().Field(i).Name, got, want)
		}
	}
	if got := counters.Load(&a); !reflect.DeepEqual(got, a) {
		t.Errorf("Load = %+v, want %+v", got, a)
	}
	if got, want := counters.String(&a), strings.Join(want, " "); got != want || counters.String(a) != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestDesignTableListsEveryCounter: DESIGN.md §2.5's counter table has
// one row per counter, in field order, and nothing else.
func TestDesignTableListsEveryCounter(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `([a-z]+\\.Stats)` +\\| `([^`]*)` +\\|")
	var got, want []string
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		got = append(got, m[1]+" "+m[2])
	}
	for _, tb := range tables {
		counters.Each(tb.zero, func(name string, _ int64) { want = append(want, tb.name+" "+name) })
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DESIGN.md counter table rows:\n  %s\nwant, from the Stats structs:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
