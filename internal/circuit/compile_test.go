package circuit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/quantum"
)

// randomCircuit builds a random circuit over n qubits drawing from the full
// IR gate set (parameterized, multi-qubit, Toffoli, barriers).
func randomCircuit(rng *rand.Rand, n, gates int) *Circuit {
	c := New(n, "random")
	oneQ := []string{OpH, OpX, OpY, OpZ, OpS, OpSdag, OpT, OpTdag, OpRX, OpRY, OpRZ, OpPRX, OpU3}
	twoQ := []string{OpCZ, OpCNOT, OpSWAP, OpCRZ}
	params := func(k int) []float64 {
		ps := make([]float64, k)
		for i := range ps {
			ps[i] = (rng.Float64()*2 - 1) * 2 * math.Pi
		}
		return ps
	}
	for len(c.Gates) < gates {
		switch r := rng.Float64(); {
		case r < 0.55:
			name := oneQ[rng.Intn(len(oneQ))]
			g := Gate{Name: name, Qubits: []int{rng.Intn(n)}, Params: params(opSpecs[name].params)}
			if len(g.Params) == 0 {
				g.Params = nil
			}
			c.append(g.Name, g.Params, g.Qubits...)
		case r < 0.85 && n >= 2:
			name := twoQ[rng.Intn(len(twoQ))]
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			g := Gate{Name: name, Qubits: []int{a, b}, Params: params(opSpecs[name].params)}
			if len(g.Params) == 0 {
				g.Params = nil
			}
			c.append(g.Name, g.Params, g.Qubits...)
		case r < 0.92 && n >= 3:
			qs := rng.Perm(n)[:3]
			c.CCX(qs[0], qs[1], qs[2])
		default:
			c.Barrier()
		}
	}
	return c
}

// TestCompiledProgramMatchesApplyTo is the engine's correctness property:
// over randomized circuits, the fused flat program is unitary-equivalent to
// the naive gate-by-gate reference (state fidelity >= 1-1e-9 on |0...0>).
func TestCompiledProgramMatchesApplyTo(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4) // 2..5 qubits
		c := randomCircuit(rng, n, 10+rng.Intn(30))
		prog, err := Compile(c)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		want, err := c.Simulate() // naive ApplyTo reference
		if err != nil {
			t.Fatalf("trial %d: simulate: %v", trial, err)
		}
		got, err := quantum.AcquireState(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.RunOn(got); err != nil {
			t.Fatalf("trial %d: run: %v", trial, err)
		}
		f, err := got.Fidelity(want)
		if err != nil {
			t.Fatal(err)
		}
		quantum.ReleaseState(got)
		if f < 1-1e-9 {
			t.Fatalf("trial %d (n=%d, %d gates): compiled/naive fidelity = %.12f, want >= 1-1e-9\ncircuit: %+v",
				trial, n, len(c.Gates), f, c.Gates)
		}
	}
}

func TestCompileFusesSingleQubitRuns(t *testing.T) {
	// 6 single-qubit gates on q0 + 2 on q1, split by one CZ: the run on q0
	// before the CZ fuses to one op, as does everything after.
	c := New(2, "fusion")
	c.H(0).T(0).RZ(0, 0.3) // fuse -> 1 op
	c.X(1)                 // fuse -> 1 op
	c.CZ(0, 1)             // 1 op
	c.S(0).RX(0, 0.1)      // fuse -> 1 op
	c.Y(1)                 // fuse -> 1 op
	prog, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Ops) != 5 {
		t.Errorf("fused program has %d ops, want 5 (from %d gates)", len(prog.Ops), len(c.Gates))
	}
	oneQ := 0
	for _, op := range prog.Ops {
		if op.Kind == quantum.ProgOp1Q {
			oneQ++
		}
	}
	if oneQ != 4 {
		t.Errorf("fused program has %d single-qubit ops, want 4", oneQ)
	}
}

func TestCompileDropsBarriers(t *testing.T) {
	c := New(2, "barriers")
	c.H(0).Barrier(0, 1).H(0) // H·H fuses to identity-equivalent single op
	prog, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Ops) != 1 {
		t.Errorf("program has %d ops, want 1 (barrier dropped, H·H fused)", len(prog.Ops))
	}
}

func TestCompileEmptyCircuit(t *testing.T) {
	prog, err := Compile(New(3, "empty"))
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Ops) != 0 || prog.NumQubits != 3 {
		t.Errorf("empty circuit compiled to %d ops over %d qubits", len(prog.Ops), prog.NumQubits)
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	c := &Circuit{NumQubits: 2, Gates: []Gate{{Name: "nope", Qubits: []int{0}}}}
	if _, err := Compile(c); err == nil {
		t.Error("expected error for unknown gate")
	}
}
