package transpile

import (
	"math/rand"
	"testing"
)

// TestTranspileAllocs gates the compile-miss path of a hybrid loop: a
// fresh-angle ansatz misses the device's compile map on every job, so what one
// Transpile allocates is paid per optimiser iteration. A fleet worker runs the
// passes in its own Scratch, so what is left is the result: its record and
// the final circuit copied out at its exact size. The layout is the target's
// memo, not a search and not a copy. Without a scratch to reuse, the passes
// allocate per circuit (gate list plus two operand arenas), not per gate.
func TestTranspileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are a property of the non-race build; CI runs this gate as its own step")
	}
	target := driftedGrid()
	c := ansatzLiteral(rand.New(rand.NewSource(3)))
	opts := Options{Placement: PlaceFidelityAware}
	var sc Scratch
	worker := testing.AllocsPerRun(50, func() {
		if _, err := sc.Transpile(c, target, opts); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(50, func() {
		if _, err := Transpile(c, target, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Transpile of the 5-qubit depth-4 ansatz: %.0f allocs in a worker's scratch, %.0f in a fresh one", worker, fresh)
	if worker > 7 {
		t.Errorf("Transpile of the 5-qubit depth-4 ansatz in a reused scratch: %.0f allocs, want <= 7 (measured 5)", worker)
	}
	if fresh > 17 {
		t.Errorf("Transpile of the 5-qubit depth-4 ansatz: %.0f allocs, want <= 17 (measured 14; 26 with a circuit per pass, 33 before Place kept its layout per target, 178 with two slices per gate per pass)", fresh)
	}
}
