//go:build !amd64 || !gc

package quantum

// vectorRows is false off amd64: apply1QPairs runs the Go rows. It stays a
// variable for the tests that reach it by name (rows_amd64.go).
var vectorRows = false

func vectorPairs(amps []complex128, bit, lo, hi int, m *Matrix2, shape rowShape) {
	goPairs(amps, bit, lo, hi, m, shape)
}
