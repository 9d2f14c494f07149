//go:build !amd64 || !gc

package quantum

// vectorRows is false off amd64: the engine's passes run the Go kernels. It
// stays a variable for the tests that reach it by name (rows_amd64.go).
var vectorRows = false

func vectorPairs(amps []complex128, bit, lo, hi int, m *Matrix2, shape rowShape) {
	goPairs(amps, bit, lo, hi, m, shape)
}

func vectorCZ(amps []complex128, lo, hi int) {
	goCZ(amps, 1<<uint(lo)|1<<uint(hi))
}

func vectorDensity(amps []complex128, bit int, d *[4]float64) {
	goDensity(amps, bit, d)
}

func vectorProbs(amps []complex128, probs []float64) float64 {
	return goProbs(amps, probs)
}

func vectorWeighted(amps []complex128, probs, lo, hi []float64) float64 {
	return goWeighted(amps, probs, lo, hi)
}
