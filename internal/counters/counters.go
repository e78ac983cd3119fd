// Package counters treats a Stats struct as a table of named counters:
// every field is one int or int64 counter, named by its json tag. One
// loop over the fields merges two tables, snapshots one that other
// goroutines update with sync/atomic, and prints any of them, so a
// field added to a Stats struct reaches every sum, snapshot and summary
// with no further code (DESIGN.md §2.5 lists the counters).
package counters

import (
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
)

// Add adds every counter of src to *dst.
func Add[T any](dst *T, src T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetInt(d.Field(i).Int() + s.Field(i).Int())
	}
}

// Load returns a copy of *p with every counter read by an atomic load,
// so it is safe while other goroutines add to *p with atomic.AddInt64.
// The copy is consistent per counter, not across counters.
func Load[T any](p *T) T {
	var out T
	s, d := reflect.ValueOf(p).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < s.NumField(); i++ {
		addr := s.Field(i).Addr().UnsafePointer()
		if s.Field(i).Kind() == reflect.Int && strconv.IntSize == 32 {
			d.Field(i).SetInt(int64(atomic.LoadInt32((*int32)(addr))))
		} else {
			d.Field(i).SetInt(atomic.LoadInt64((*int64)(addr)))
		}
	}
	return out
}

// Each calls fn with the name and value of every counter of v (a
// counter struct or a pointer to one), in field order.
func Each(v any, fn func(name string, value int64)) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	for i := 0; i < rv.NumField(); i++ {
		name, _, _ := strings.Cut(rv.Type().Field(i).Tag.Get("json"), ",")
		fn(name, rv.Field(i).Int())
	}
}

// String renders v as space-separated name=value pairs, in field order
// — the form every command summary prints.
func String(v any) string {
	var pairs []string
	Each(v, func(name string, value int64) { pairs = append(pairs, name+"="+strconv.FormatInt(value, 10)) })
	return strings.Join(pairs, " ")
}
