//go:build !race

package transpile

const raceEnabled = false
