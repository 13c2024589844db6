//go:build !race

package ingest

const raceEnabled = false
