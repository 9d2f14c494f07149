//go:build race

package fleet

const raceEnabled = true
