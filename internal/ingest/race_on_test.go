//go:build race

package ingest

// testing.AllocsPerRun counts the race detector's own allocations, and
// sync.Pool drops values at random under it, so the allocation pins
// that recycle chunks only mean something without -race.
const raceEnabled = true
