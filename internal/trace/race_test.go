//go:build race

package trace

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts through pooled buffers are not exact.
const raceEnabled = true
