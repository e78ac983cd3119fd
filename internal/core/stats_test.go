package core

import (
	"reflect"
	"testing"

	"hop/internal/counters"
)

// TestStatsAddCoversEveryField fills every counter of two snapshots
// with distinct values and merges them as Engine.Stats does: a field
// the merge leaves out — such as one added to Stats later with a kind
// counters.Add cannot sum — reads wrong.
func TestStatsAddCoversEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if k := va.Field(i).Kind(); k != reflect.Int {
			t.Fatalf("Stats field %s has kind %v; a counter is an int", va.Type().Field(i).Name, k)
		}
		va.Field(i).SetInt(int64(1 + i))
		vb.Field(i).SetInt(int64(100 + i))
	}
	sum := a
	counters.Add(&sum, b)
	vs := reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		if got, want := vs.Field(i).Int(), va.Field(i).Int()+vb.Field(i).Int(); got != want {
			t.Errorf("Add: %s = %d, want %d", vs.Type().Field(i).Name, got, want)
		}
	}
}
