package transpile

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

// gridTarget returns a rows x cols grid target with uniform fidelities.
func gridTarget(rows, cols int) *Target {
	var edges [][2]int
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{idx(r, c), idx(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{idx(r, c), idx(r+1, c)})
			}
		}
	}
	return &Target{NumQubits: rows * cols, Edges: edges}
}

// lineTarget returns an n-qubit path graph.
func lineTarget(n int) *Target {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return &Target{NumQubits: n, Edges: edges}
}

// equivalentUnderLayout verifies that the transpiled physical circuit acts on
// |0…0> exactly as the logical circuit does, with logical qubit i living on
// physical qubit res.FinalLayout[i], up to global phase.
func equivalentUnderLayout(t *testing.T, orig *circuit.Circuit, res *Result) {
	t.Helper()
	so, err := orig.Simulate()
	if err != nil {
		t.Fatalf("simulating original: %v", err)
	}
	st, err := res.Circuit.Simulate()
	if err != nil {
		t.Fatalf("simulating transpiled: %v", err)
	}
	var ip complex128
	for l := 0; l < so.Dim(); l++ {
		p := 0
		for bit := 0; bit < orig.NumQubits; bit++ {
			if l&(1<<uint(bit)) != 0 {
				p |= 1 << uint(res.FinalLayout[bit])
			}
		}
		ip += cmplx.Conj(so.Amplitude(l)) * st.Amplitude(p)
	}
	if f := real(ip)*real(ip) + imag(ip)*imag(ip); f < 1-1e-9 {
		t.Errorf("transpiled circuit not equivalent under layout: fidelity %g", f)
	}
}

func TestDecomposeProducesNative(t *testing.T) {
	c := circuit.New(3, "mix")
	c.H(0).X(1).Y(2).Z(0).S(1).Sdag(2).T(0).Tdag(1)
	c.RX(0, 0.4).RY(1, 0.8).RZ(2, 1.2).PRX(0, 0.1, 0.2)
	c.CNOT(0, 1).SWAP(1, 2).CZ(0, 2).Barrier()
	low, err := Decompose(c)
	if err != nil {
		t.Fatal(err)
	}
	if !low.IsNative() {
		t.Fatal("decomposed circuit contains non-native gates")
	}
	eq, err := c.EquivalentTo(low, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("decomposition changed circuit semantics")
	}
}

func TestDecomposeRandomCircuitsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := []string{circuit.OpH, circuit.OpX, circuit.OpY, circuit.OpZ, circuit.OpS,
		circuit.OpT, circuit.OpRX, circuit.OpRY, circuit.OpRZ, circuit.OpCNOT,
		circuit.OpSWAP, circuit.OpCZ}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(3)
		c := circuit.New(n, "rand")
		for i := 0; i < 12; i++ {
			op := ops[rng.Intn(len(ops))]
			g := circuit.Gate{Name: op}
			switch op {
			case circuit.OpCNOT, circuit.OpSWAP, circuit.OpCZ:
				a := rng.Intn(n)
				b := (a + 1 + rng.Intn(n-1)) % n
				g.Qubits = []int{a, b}
			case circuit.OpRX, circuit.OpRY, circuit.OpRZ:
				g.Qubits = []int{rng.Intn(n)}
				g.Params = []float64{rng.Float64()*4*math.Pi - 2*math.Pi}
			default:
				g.Qubits = []int{rng.Intn(n)}
			}
			if err := c.AddGate(g); err != nil {
				t.Fatal(err)
			}
		}
		low, err := Decompose(c)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := c.EquivalentTo(low, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("trial %d: decomposition not equivalent:\n%s", trial, c.ToQASM())
		}
	}
}

func TestOptimizeMergesRotations(t *testing.T) {
	c := circuit.New(2, "")
	c.RZ(0, 0.5).RZ(0, 0.7).PRX(1, 0.3, 0.1).PRX(1, 0.4, 0.1)
	opt := Optimize(c)
	if got := len(opt.Gates); got != 2 {
		t.Errorf("gates after merge = %d, want 2: %v", got, opt.Gates)
	}
	eq, err := c.EquivalentTo(opt, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("merge changed semantics")
	}
}

func TestOptimizeCancelsInverses(t *testing.T) {
	c := circuit.New(2, "")
	c.RZ(0, 1.3).RZ(0, -1.3).CZ(0, 1).CZ(1, 0).PRX(1, 0.9, 0.4).PRX(1, -0.9, 0.4)
	opt := Optimize(c)
	if got := len(opt.Gates); got != 0 {
		t.Errorf("all gates should cancel, got %d: %v", got, opt.Gates)
	}
}

func TestOptimizeRespectsInterveningGates(t *testing.T) {
	c := circuit.New(2, "")
	c.RZ(0, 0.5).CZ(0, 1).RZ(0, 0.5) // CZ touches qubit 0: no merge
	opt := Optimize(c)
	if got := len(opt.Gates); got != 3 {
		t.Errorf("gates = %d, want 3 (no merge across CZ)", got)
	}
}

func TestOptimizeRespectsBarriers(t *testing.T) {
	c := circuit.New(1, "")
	c.RZ(0, 0.5).Barrier().RZ(0, -0.5)
	opt := Optimize(c)
	// The barrier must prevent cancellation.
	if got := opt.CountOp(circuit.OpRZ); got != 2 {
		t.Errorf("rz count = %d, want 2 (barrier blocks merge)", got)
	}
}

func TestOptimizeDropsZeroRotations(t *testing.T) {
	c := circuit.New(1, "")
	c.RZ(0, 0).PRX(0, 2*math.Pi, 0.3).RZ(0, 2*math.Pi)
	opt := Optimize(c)
	if got := len(opt.Gates); got != 0 {
		t.Errorf("zero rotations survived: %v", opt.Gates)
	}
}

func TestPlaceStatic(t *testing.T) {
	tgt := gridTarget(4, 5)
	l, err := Place(5, tgt, PlaceStatic)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range l {
		if p != i {
			t.Errorf("static layout[%d] = %d", i, p)
		}
	}
}

func TestPlaceValidation(t *testing.T) {
	tgt := gridTarget(2, 2)
	if _, err := Place(0, tgt, PlaceStatic); err == nil {
		t.Error("expected error for 0 qubits")
	}
	if _, err := Place(5, tgt, PlaceStatic); err == nil {
		t.Error("expected error for too many qubits")
	}
	if _, err := Place(2, tgt, PlacementStrategy(99)); err == nil {
		t.Error("expected error for unknown strategy")
	}
}

func TestPlaceFidelityAwareAvoidsBadQubits(t *testing.T) {
	tgt := gridTarget(4, 5)
	tgt.F1Q = make([]float64, 20)
	tgt.FRead = make([]float64, 20)
	tgt.FCZ = map[[2]int]float64{}
	for i := range tgt.F1Q {
		tgt.F1Q[i] = 0.999
		tgt.FRead[i] = 0.98
	}
	for _, e := range tgt.Edges {
		tgt.FCZ[e] = 0.99
	}
	// Poison qubits 0 and 1 (a TLS hit near the static layout's home).
	tgt.F1Q[0] = 0.90
	tgt.F1Q[1] = 0.91
	l, err := Place(4, tgt, PlaceFidelityAware)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range l {
		if p == 0 || p == 1 {
			t.Errorf("fidelity-aware layout %v uses poisoned qubit %d", l, p)
		}
	}
	// The layout must be connected and duplicate-free.
	seen := map[int]bool{}
	for _, p := range l {
		if seen[p] {
			t.Fatalf("layout %v has duplicates", l)
		}
		seen[p] = true
	}
}

func TestPlaceFidelityAwareUniformIsConnected(t *testing.T) {
	tgt := gridTarget(4, 5)
	l, err := Place(20, tgt, PlaceFidelityAware)
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 20 {
		t.Fatalf("layout size %d", len(l))
	}
	seen := map[int]bool{}
	for _, p := range l {
		if seen[p] {
			t.Fatal("duplicate physical qubit in layout")
		}
		seen[p] = true
	}
}

func TestRouteAdjacentGateNeedsNoSwaps(t *testing.T) {
	tgt := lineTarget(3)
	c := circuit.New(2, "").CZ(0, 1)
	res, err := Route(c, tgt, Layout{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsInserted != 0 {
		t.Errorf("swaps = %d, want 0", res.SwapsInserted)
	}
}

// TestRouteBarrierInsertsNoSwap: a barrier orders gates and couples
// nothing, so routing must not bring its operands together.
func TestRouteBarrierInsertsNoSwap(t *testing.T) {
	tgt := lineTarget(3)
	c := circuit.New(3, "").CNOT(0, 1).CNOT(1, 2).Barrier(0, 2)
	res, err := Route(c, tgt, Layout{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsInserted != 0 {
		t.Errorf("swaps = %d, want 0: the barrier on 0,2 was routed as a coupling", res.SwapsInserted)
	}
	if last := res.Circuit.Gates[len(res.Circuit.Gates)-1]; last.Name != circuit.OpBarrier || last.Qubits[0] != 0 || last.Qubits[1] != 2 {
		t.Errorf("last gate = %v, want barrier 0,2", last)
	}
}

func TestRouteInsertsSwapsForDistantPair(t *testing.T) {
	tgt := lineTarget(5)
	c := circuit.New(2, "").H(0).CNOT(0, 1)
	// Place logical 0 at physical 0 and logical 1 at physical 4.
	low, err := Decompose(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(low, tgt, Layout{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsInserted != 3 {
		t.Errorf("swaps = %d, want 3 (distance 4 needs 3 swaps)", res.SwapsInserted)
	}
	// Lower the swaps and verify semantics under the final layout.
	native, err := Decompose(res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	full := &Result{Circuit: native, FinalLayout: res.FinalLayout}
	equivalentUnderLayout(t, c, full)
}

func TestTranspileGHZ20OnGrid(t *testing.T) {
	tgt := gridTarget(4, 5)
	res, err := Transpile(circuit.GHZ(20), tgt, Options{Placement: PlaceStatic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Circuit.IsNative() {
		t.Fatal("output not native")
	}
	// GHZ chain 0-1-...-19 on a 4x5 grid in row-major order: neighbours
	// i,i+1 are adjacent except at row boundaries (4-5, 9-10, 14-15).
	if res.Stats.SwapsInserted == 0 {
		t.Error("expected swaps at grid row boundaries")
	}
	equivalentUnderLayout(t, circuit.GHZ(20), res)
}

func TestTranspileSmallCircuitsEquivalent(t *testing.T) {
	tgt := gridTarget(2, 3)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(4)
		c := circuit.New(n, "t")
		for i := 0; i < 10; i++ {
			switch rng.Intn(3) {
			case 0:
				c.RY(rng.Intn(n), rng.Float64()*3)
			case 1:
				c.H(rng.Intn(n))
			case 2:
				a := rng.Intn(n)
				b := (a + 1 + rng.Intn(n-1)) % n
				c.CNOT(a, b)
			}
		}
		for _, strat := range []PlacementStrategy{PlaceStatic, PlaceFidelityAware} {
			res, err := Transpile(c, tgt, Options{Placement: strat})
			if err != nil {
				t.Fatalf("trial %d strategy %v: %v", trial, strat, err)
			}
			equivalentUnderLayout(t, c, res)
		}
	}
}

func TestTranspileOptimizeReducesGateCount(t *testing.T) {
	tgt := gridTarget(4, 5)
	// A circuit a naive frontend might emit, with obvious redundancy.
	c := circuit.New(4, "redundant")
	c.X(0).X(0).T(1).Tdag(1).CZ(1, 2).CZ(2, 1).S(3).S(3).Sdag(3).Sdag(3)
	c.H(0).CNOT(0, 1)
	with, err := Transpile(c, tgt, Options{Placement: PlaceStatic})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Transpile(c, tgt, Options{Placement: PlaceStatic, SkipOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Stats.OutputGates >= without.Stats.OutputGates {
		t.Errorf("optimize did not reduce gates: %d vs %d",
			with.Stats.OutputGates, without.Stats.OutputGates)
	}
	equivalentUnderLayout(t, c, with)
}

func TestExpectedFidelityPrefersGoodLayout(t *testing.T) {
	tgt := gridTarget(4, 5)
	tgt.F1Q = make([]float64, 20)
	tgt.FRead = make([]float64, 20)
	tgt.FCZ = map[[2]int]float64{}
	for i := range tgt.F1Q {
		tgt.F1Q[i] = 0.999
		tgt.FRead[i] = 0.98
	}
	for _, e := range tgt.Edges {
		tgt.FCZ[e] = 0.99
	}
	tgt.F1Q[0] = 0.85 // badly degraded qubit at the static layout's origin
	tgt.FCZ[[2]int{0, 1}] = 0.9
	ghz := circuit.GHZ(5)
	static, err := Transpile(ghz, tgt, Options{Placement: PlaceStatic})
	if err != nil {
		t.Fatal(err)
	}
	jit, err := Transpile(ghz, tgt, Options{Placement: PlaceFidelityAware})
	if err != nil {
		t.Fatal(err)
	}
	fs := ExpectedFidelity(static.Circuit, tgt)
	fj := ExpectedFidelity(jit.Circuit, tgt)
	if fj <= fs {
		t.Errorf("JIT placement expected fidelity %.4f should beat static %.4f", fj, fs)
	}
}

func TestTargetValidate(t *testing.T) {
	bad := &Target{NumQubits: 0}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for empty target")
	}
	bad2 := &Target{NumQubits: 2, Edges: [][2]int{{0, 5}}}
	if err := bad2.Validate(); err == nil {
		t.Error("expected error for bad edge")
	}
	bad3 := &Target{NumQubits: 2, F1Q: []float64{1}}
	if err := bad3.Validate(); err == nil {
		t.Error("expected error for short F1Q")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{InputGates: 5, OutputGates: 10, SwapsInserted: 2}
	if s.String() == "" {
		t.Error("empty stats string")
	}
	if PlaceStatic.String() != "static" || PlaceFidelityAware.String() != "fidelity-aware" {
		t.Error("strategy names wrong")
	}
}

// Randomized-input equivalence: decompose must commute with arbitrary input
// states, not just |0…0>. Prepare a random product state, run both circuits.
func TestDecomposeEquivalentOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := circuit.New(3, "")
	c.H(0).CNOT(0, 1).T(1).CNOT(1, 2).S(2).CNOT(0, 2)
	low, err := Decompose(c)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		s1 := quantum.MustNewState(3)
		for q := 0; q < 3; q++ {
			s1.Apply1Q(q, quantum.PRX(rng.Float64()*math.Pi, rng.Float64()*2*math.Pi))
		}
		s2 := s1.Clone()
		if err := c.ApplyTo(s1); err != nil {
			t.Fatal(err)
		}
		if err := low.ApplyTo(s2); err != nil {
			t.Fatal(err)
		}
		f, err := s1.Fidelity(s2)
		if err != nil {
			t.Fatal(err)
		}
		if f < 1-1e-9 {
			t.Fatalf("trial %d: decomposition differs on random input, fidelity %g", trial, f)
		}
	}
}
