package transpile

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/circuit"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/transpile_pinned.txt from this build's Transpile")

// render prints a circuit with every parameter as its IEEE-754 bits, so two
// renderings are equal only when the circuits are bit-identical.
func render(c *circuit.Circuit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q %d\n", c.Name, c.NumQubits)
	for _, g := range c.Gates {
		fmt.Fprintf(&b, "  %s %v", g.Name, g.Qubits)
		for _, p := range g.Params {
			fmt.Fprintf(&b, " %016x", math.Float64bits(p))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// driftedGrid is the 4x5 grid with seeded, non-uniform fidelities, so
// fidelity-aware placement and routing have something to choose between.
func driftedGrid() *Target {
	t := gridTarget(4, 5)
	rng := rand.New(rand.NewSource(19))
	t.F1Q, t.FRead, t.FCZ = make([]float64, t.NumQubits), make([]float64, t.NumQubits), map[[2]int]float64{}
	for q := range t.F1Q {
		t.F1Q[q], t.FRead[q] = 0.999-0.004*rng.Float64(), 0.98-0.03*rng.Float64()
	}
	for _, e := range t.Edges {
		t.FCZ[e] = 0.99 - 0.03*rng.Float64()
	}
	t.FCZ[[2]int{1, 2}] = 0.6 // a TLS parked on a coupler the static routes cross
	return t
}

// ansatzLiteral is the hybrid-loop job as the v2 decoder hands it over: a
// 5-qubit depth-4 rx/cz ansatz whose gates own their slices.
func ansatzLiteral(rng *rand.Rand) *circuit.Circuit {
	c := &circuit.Circuit{NumQubits: 5}
	for l := 0; l < 4; l++ {
		for q := 0; q < 5; q++ {
			c.Gates = append(c.Gates, circuit.Gate{Name: "rx", Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}})
		}
		for q := l % 2; q+1 < 5; q += 2 {
			c.Gates = append(c.Gates, circuit.Gate{Name: "cz", Qubits: []int{q, q + 1}})
		}
	}
	return c
}

// wideLiteral is the wide-circuit job (bench/e2e/gen.go's randomWide): 12
// qubits, 4 layers of ry+rz on every qubit then cz brickwork along the line.
// The greedy walk breaks the 12-chain on driftedGrid ([19 14 ... 18 3 4]),
// which cost this circuit 5 SWAPs and 15 CZs before placement searched.
func wideLiteral(rng *rand.Rand) *circuit.Circuit {
	c := &circuit.Circuit{NumQubits: 12}
	for l := 0; l < 4; l++ {
		for q := 0; q < 12; q++ {
			c.Gates = append(c.Gates,
				circuit.Gate{Name: "ry", Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}},
				circuit.Gate{Name: "rz", Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}})
		}
		for q := l % 2; q+1 < 12; q += 2 {
			c.Gates = append(c.Gates, circuit.Gate{Name: "cz", Qubits: []int{q, q + 1}})
		}
	}
	return c
}

type pinnedCase struct {
	name string
	c    *circuit.Circuit
	opts Options
}

func pinnedCases() []pinnedCase {
	aware := Options{Placement: PlaceFidelityAware}
	cases := []pinnedCase{{"ansatz", ansatzLiteral(rand.New(rand.NewSource(7))), aware}}
	for n := 3; n <= 6; n++ {
		cases = append(cases, pinnedCase{fmt.Sprintf("ghz-%d", n), circuit.GHZ(n), aware})
	}
	far := circuit.New(20, "far").H(0).CNOT(0, 7).CNOT(2, 11).RX(19, 0.3).CNOT(0, 19).CZ(3, 16)
	cases = append(cases,
		pinnedCase{"swaps-shortest-hop", far, Options{}},
		pinnedCase{"swaps-fidelity-weighted", far, Options{Routing: RouteFidelityWeighted}},
		pinnedCase{"swaps-unoptimized", far, Options{SkipOptimize: true}},
		pinnedCase{"u3", circuit.New(2, "u3").U3(1, 0.3, -1.1, 2.5), aware},
		pinnedCase{"crz", circuit.New(3, "crz").CRZ(0, 2, 0.7), aware},
		pinnedCase{"ccx", circuit.New(3, "ccx").X(0).X(1).CCX(0, 1, 2), aware},
		pinnedCase{"swap", circuit.New(4, "swap").X(0).SWAP(0, 3), Options{}},
		pinnedCase{"barrier", circuit.New(4, "barrier").RZ(0, 0.2).Barrier().RZ(0, 0.3).Barrier(1).H(1).Barrier(0, 3).RZ(0, 0.1).Barrier(0, 1, 2), Options{}},
		pinnedCase{"zero-angle", circuit.New(2, "zero").RZ(0, 0).RX(1, 0).RZ(1, 2*math.Pi).H(0), aware},
		pinnedCase{"two-pi-sum", circuit.New(2, "twopi").RZ(0, math.Pi).RZ(0, math.Pi).RX(1, 1.5*math.Pi).RX(1, 0.5*math.Pi).RY(0, 0.4).RY(0, 0.5), aware},
		pinnedCase{"cz-cz-exposes-rz-merge", circuit.New(2, "czcz").RZ(0, 0.3).PRX(1, 0.2, 0.1).CZ(0, 1).CZ(1, 0).RZ(0, 0.4).PRX(1, 0.3, 0.1), aware},
		pinnedCase{"wide-12", wideLiteral(rand.New(rand.NewSource(7))), aware},
	)
	return cases
}

// TestTranspilePinnedOutputs compares Transpile's whole output — gate list,
// parameter bits, layouts, stats — with a table recorded at the commit
// before the flat-storage rewrite of the passes (PR 19's parent); the
// wide-12 row was added with the placement search, which it pins.
func TestTranspilePinnedOutputs(t *testing.T) {
	target := driftedGrid()
	var b strings.Builder
	for _, tc := range pinnedCases() {
		res, err := Transpile(tc.c, target, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&b, "== %s\n%s\ninitial %v\nfinal %v\n%s", tc.name, res.Stats, res.InitialLayout, res.FinalLayout, render(res.Circuit))
	}
	const path = "testdata/transpile_pinned.txt"
	if *updatePinned {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from the pinned table at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, the pinned table %d", len(gl), len(wl))
	}
}

// TestPassesLeaveInputUntouched: the v2 record echoes the request and the
// journal writes it after compilation, so no pass may write through the
// circuit it was handed.
func TestPassesLeaveInputUntouched(t *testing.T) {
	target := driftedGrid()
	for _, tc := range pinnedCases() {
		before := render(tc.c.Clone())
		if _, err := Transpile(tc.c, target, tc.opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := render(tc.c); got != before {
			t.Errorf("%s: Transpile changed its input:\n%s\nwas\n%s", tc.name, got, before)
		}
		native, err := Decompose(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		before = render(native.Clone())
		Optimize(native)
		if got := render(native); got != before {
			t.Errorf("%s: Optimize changed its input:\n%s\nwas\n%s", tc.name, got, before)
		}
	}
}

// scribble appends to and then overwrites every operand slice of c's gates.
// After each append the rest of c must read as before (a gate's slices are
// capped, so growth cannot land in its neighbour).
func scribble(t *testing.T, label string, c *circuit.Circuit) {
	t.Helper()
	before := render(c)
	for i := range c.Gates {
		_ = append(c.Gates[i].Qubits, -7)
		_ = append(c.Gates[i].Params, -7)
		if got := render(c); got != before {
			t.Fatalf("%s: appending to gate %d changed the circuit:\n%s\nwas\n%s", label, i, got, before)
		}
	}
	for i := range c.Gates {
		for j := range c.Gates[i].Qubits {
			c.Gates[i].Qubits[j] = -9
		}
		for j := range c.Gates[i].Params {
			c.Gates[i].Params[j] = -9
		}
	}
}

// TestPassOutputsOwnTheirStorage: whatever a caller does to the gates a pass
// returned, the pass's input reads as before.
func TestPassOutputsOwnTheirStorage(t *testing.T) {
	target := driftedGrid()
	for _, tc := range pinnedCases() {
		src := render(tc.c)
		check := func(label string, out *circuit.Circuit, in *circuit.Circuit, inWas string) {
			t.Helper()
			scribble(t, tc.name+"/"+label, out)
			if got := render(in); got != inWas {
				t.Errorf("%s: scribbling on %s's output changed its input:\n%s\nwas\n%s", tc.name, label, got, inWas)
			}
		}
		res, err := Transpile(tc.c, target, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		check("Transpile", res.Circuit, tc.c, src)
		check("Clone", tc.c.Clone(), tc.c, src)

		lowered, err := Decompose(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		loweredWas := render(lowered)
		check("Optimize", Optimize(lowered), lowered, loweredWas)
		layout, err := Place(tc.c.NumQubits, target, tc.opts.Placement)
		if err != nil {
			t.Fatal(err)
		}
		routed, err := RouteWith(lowered, target, layout, tc.opts.Routing)
		if err != nil {
			t.Fatal(err)
		}
		check("RouteWith", routed.Circuit, lowered, loweredWas)
		check("Decompose", lowered, tc.c, src)
	}
}
