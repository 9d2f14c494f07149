package device

import (
	"maps"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/telemetry/trace"
	"repro/internal/transpile"
)

// TestCompileMapComparesCircuits holds the compile map to keying on the
// circuit itself. A renamed circuit is the same program, so it hits the
// entry its original left. A change to the qubit count, a gate's name, one
// of its qubits or one bit of one parameter is another program: it misses,
// gets an entry of its own, and runs to the counts it gets when it is the
// only circuit an epoch of the same device ever compiled.
func TestCompileMapComparesCircuits(t *testing.T) {
	const seed, shots, jobID = 7, 400, 11
	build := func(n int, name string, op string, q int, theta float64) *circuit.Circuit {
		c := circuit.New(n, name)
		c.Gates = append(c.Gates, circuit.Gate{Name: op, Qubits: []int{q}, Params: []float64{theta}})
		return c.CNOT(0, 1).CNOT(1, 2).CNOT(2, 3)
	}
	base := build(4, "base", circuit.OpRY, 0, 0.5)
	var sc transpile.Scratch
	qpu := New20Q(seed)
	ep := qpu.Epoch()
	prepare := func(c *circuit.Circuit) (*Compiled, bool) {
		t.Helper()
		e, hit, err := ep.Prepare(c, transpile.PlaceFidelityAware, &sc)
		if err != nil {
			t.Fatal(err)
		}
		return e, hit
	}
	first, hit := prepare(base)
	if hit {
		t.Fatal("the first compile of an epoch hit")
	}
	if again, hit := prepare(build(4, "renamed", circuit.OpRY, 0, 0.5)); !hit || again != first {
		t.Fatalf("a renamed circuit: hit %v, same entry %v; want its original's entry", hit, again == first)
	}

	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
	}{
		{"qubit count", build(5, "base", circuit.OpRY, 0, 0.5)},
		{"gate name", build(4, "base", circuit.OpRX, 0, 0.5)},
		{"qubit", build(4, "base", circuit.OpRY, 1, 0.5)},
		{"parameter bit", build(4, "base", circuit.OpRY, 0, math.Float64frombits(math.Float64bits(0.5)^1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, hit := prepare(tc.c)
			if hit || e == first {
				t.Fatalf("hit %v, shares the base's entry %v: want a miss and an entry of its own", hit, e == first)
			}
			if again, hit := prepare(tc.c); !hit || again != e {
				t.Fatalf("a second compile: hit %v, same entry %v", hit, again == e)
			}
			got, err := qpu.Run(trace.Span{}, e, shots, jobID)
			if err != nil {
				t.Fatal(err)
			}
			alone := New20Q(seed)
			solo, _, err := alone.Epoch().Prepare(tc.c, transpile.PlaceFidelityAware, new(transpile.Scratch))
			if err != nil {
				t.Fatal(err)
			}
			want, err := alone.Run(trace.Span{}, solo, shots, jobID)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got.Counts, want.Counts) {
				t.Fatalf("counts %v, want %v: the counts of the circuit compiled alone", got.Counts, want.Counts)
			}
		})
	}
	if n := ep.Entries(); n != 5 {
		t.Fatalf("epoch holds %d entries, want 5: the base and its four variants", n)
	}
}
