//go:build !race

package ensemble

const raceEnabled = false
