//go:build race

package device

const raceEnabled = true
