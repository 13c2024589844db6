//go:build race

package server

// testing.AllocsPerRun counts the race detector's own allocations, so
// the alloc gate only means something without -race.
const raceEnabled = true
