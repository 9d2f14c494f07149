package transpile

import (
	"testing"

	"repro/internal/circuit"
)

// degradedCouplerTarget: a 1x5 line plus a 2-row grid detour, with the
// direct coupler between 1 and 2 badly degraded.
func degradedCouplerTarget() *Target {
	// Layout:
	//   0 - 1 - 2 - 3 - 4
	//       |   |
	//       5 - 6
	t := &Target{
		NumQubits: 7,
		Edges: [][2]int{
			{0, 1}, {1, 2}, {2, 3}, {3, 4},
			{1, 5}, {5, 6}, {2, 6},
		},
	}
	t.F1Q = make([]float64, 7)
	t.FRead = make([]float64, 7)
	t.FCZ = map[[2]int]float64{}
	for i := range t.F1Q {
		t.F1Q[i] = 0.999
		t.FRead[i] = 0.99
	}
	for _, e := range t.Edges {
		t.FCZ[e] = 0.99
	}
	t.FCZ[[2]int{1, 2}] = 0.6 // TLS sitting on the direct coupler
	return t
}

func TestFidelityPathAvoidsDegradedCoupler(t *testing.T) {
	tgt := degradedCouplerTarget()
	// Shortest-hop path 0->3 goes 0-1-2-3 through the bad coupler.
	hop, err := tgt.shortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hop) != 4 {
		t.Fatalf("hop path %v, want length 4", hop)
	}
	// The fidelity-weighted path detours 0-1-5-6-2-3.
	fid, err := tgt.bestFidelityPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fid) != 6 {
		t.Fatalf("fidelity path %v, want the 6-node detour", fid)
	}
	usesBadEdge := false
	for i := 1; i < len(fid); i++ {
		if (fid[i-1] == 1 && fid[i] == 2) || (fid[i-1] == 2 && fid[i] == 1) {
			usesBadEdge = true
		}
	}
	if usesBadEdge {
		t.Errorf("fidelity path %v crosses the degraded coupler", fid)
	}
}

func TestFidelityPathDegeneratesToShortestOnUniform(t *testing.T) {
	tgt := gridTarget(3, 3)
	hop, err := tgt.shortestPath(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	fid, err := tgt.bestFidelityPath(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(fid) != len(hop) {
		t.Errorf("uniform-fidelity path length %d, want hop length %d", len(fid), len(hop))
	}
}

func TestFidelityPathErrors(t *testing.T) {
	tgt := &Target{NumQubits: 4, Edges: [][2]int{{0, 1}, {2, 3}}}
	if _, err := tgt.bestFidelityPath(0, 3); err == nil {
		t.Error("disconnected components should fail")
	}
	p, err := tgt.bestFidelityPath(2, 2)
	if err != nil || len(p) != 1 {
		t.Errorf("self path = %v, %v", p, err)
	}
}

func TestRoutingStrategyAblation(t *testing.T) {
	tgt := degradedCouplerTarget()
	// A CZ between logical 0 and 1 placed at physical 0 and 3: routing must
	// bring them together.
	c := circuit.New(2, "").H(0).CNOT(0, 1)
	for _, strat := range []RoutingStrategy{RouteShortestHop, RouteFidelityWeighted} {
		res, err := Transpile(c, tgt, Options{Placement: PlaceStatic, Routing: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		equivalentUnderLayout(t, c, res)
	}
	// With logical qubits far apart, the fidelity-weighted route should
	// produce an equal-or-better expected fidelity despite more swaps.
	far := circuit.New(4, "far")
	far.H(0).CNOT(0, 3) // static layout: physical 0 and 3
	hop, err := Transpile(far, tgt, Options{Placement: PlaceStatic, Routing: RouteShortestHop})
	if err != nil {
		t.Fatal(err)
	}
	fid, err := Transpile(far, tgt, Options{Placement: PlaceStatic, Routing: RouteFidelityWeighted})
	if err != nil {
		t.Fatal(err)
	}
	equivalentUnderLayout(t, far, hop)
	equivalentUnderLayout(t, far, fid)
	fHop := ExpectedFidelity(hop.Circuit, tgt)
	fFid := ExpectedFidelity(fid.Circuit, tgt)
	if fFid <= fHop {
		t.Errorf("fidelity-weighted routing %.4f should beat shortest-hop %.4f through a 0.6 coupler",
			fFid, fHop)
	}
}

func TestRoutingStrategyStrings(t *testing.T) {
	if RouteShortestHop.String() != "shortest-hop" || RouteFidelityWeighted.String() != "fidelity-weighted" {
		t.Error("routing strategy names wrong")
	}
}

// TestSharedTargetConcurrentTranspile: QDMI hands every compile of a
// calibration epoch the same Target, so concurrent Transpile calls on one
// fresh Target (adjacency not yet built) must be race-free — run under
// -race in CI.
func TestSharedTargetConcurrentTranspile(t *testing.T) {
	tgt := degradedCouplerTarget()
	ghz := circuit.New(4, "far").H(0).CNOT(0, 3)
	errs := make(chan error, 8)
	for g := 0; g < cap(errs); g++ {
		go func() {
			_, err := Transpile(ghz, tgt, Options{Placement: PlaceFidelityAware})
			errs <- err
		}()
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
