//go:build race

package transport

// raceEnabled: under the race detector sync.Pool deliberately drops a
// quarter of what it is handed, so pooled paths allocate and
// allocation counts mean nothing.
const raceEnabled = true
