package core

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversEveryField fills every counter of two snapshots
// with distinct values: a field Add leaves out — such as one added to
// Stats later — reads wrong, and Engine.Stats would report it as zero.
func TestStatsAddCoversEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if k := va.Field(i).Kind(); k != reflect.Int {
			t.Fatalf("Stats field %s has kind %v; teach this test and Add about it", va.Type().Field(i).Name, k)
		}
		va.Field(i).SetInt(int64(1 + i))
		vb.Field(i).SetInt(int64(100 + i))
	}
	sum := a
	sum.Add(b)
	vs := reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		if got, want := vs.Field(i).Int(), va.Field(i).Int()+vb.Field(i).Int(); got != want {
			t.Errorf("Add: %s = %d, want %d", vs.Type().Field(i).Name, got, want)
		}
	}
}
