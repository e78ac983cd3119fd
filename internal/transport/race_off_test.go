//go:build !race

package transport

// raceEnabled is false in normal builds; see race_on_test.go.
const raceEnabled = false
