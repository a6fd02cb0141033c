//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, so the page free list allocates where it normally would not.
const raceEnabled = true
