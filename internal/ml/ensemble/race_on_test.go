//go:build race

package ensemble

// testing.AllocsPerRun counts the race detector's own allocations; the
// alloc gate runs without -race and only skips here.
const raceEnabled = true
