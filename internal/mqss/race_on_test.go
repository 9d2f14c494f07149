//go:build race

package mqss

const raceEnabled = true
