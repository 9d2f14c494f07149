package transpile

import (
	"math/rand"
	"testing"
)

// TestTranspileAllocs gates the compile-miss path of a hybrid loop: a
// fresh-angle ansatz misses the device's compile map on every job, so what one
// Transpile allocates is paid per optimiser iteration. The passes allocate
// per circuit (gate list plus two operand arenas), not per gate, and the
// layout comes off the target's memo (one copy), not from a search.
func TestTranspileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are a property of the non-race build; CI runs this gate as its own step")
	}
	target := driftedGrid()
	c := ansatzLiteral(rand.New(rand.NewSource(3)))
	opts := Options{Placement: PlaceFidelityAware}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Transpile(c, target, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 34 {
		t.Errorf("Transpile of the 5-qubit depth-4 ansatz: %.0f allocs, want <= 34 (measured 26; 33 before Place kept its layout per target, 178 with two slices per gate per pass)", allocs)
	}
}
