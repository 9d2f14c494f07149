package transpile

import (
	"fmt"

	"repro/internal/circuit"
)

// RoutingStrategy selects how SWAP paths are chosen.
type RoutingStrategy int

const (
	// RouteShortestHop inserts SWAPs along the minimal-hop BFS path.
	RouteShortestHop RoutingStrategy = iota
	// RouteFidelityWeighted inserts SWAPs along the path maximizing the
	// product of coupler fidelities — it detours around degraded couplers
	// when the detour costs less fidelity than the bad CZ would.
	RouteFidelityWeighted
)

func (r RoutingStrategy) String() string {
	if r == RouteFidelityWeighted {
		return "fidelity-weighted"
	}
	return "shortest-hop"
}

// RouteResult is the output of the routing pass.
type RouteResult struct {
	// Circuit operates on the physical register (target.NumQubits wide).
	Circuit *circuit.Circuit
	// InitialLayout and FinalLayout map logical -> physical before and
	// after routing (SWAPs permute the mapping).
	InitialLayout Layout
	FinalLayout   Layout
	SwapsInserted int
}

// Route rewrites a logical circuit onto the physical register using the
// given initial layout, inserting SWAP gates (emitted as OpSWAP, lowered by
// a subsequent Decompose pass) whenever a two-qubit gate spans non-adjacent
// physical qubits. SWAPs move the first operand along the shortest physical
// path until the pair is adjacent.
func Route(c *circuit.Circuit, t *Target, layout Layout) (*RouteResult, error) {
	return RouteWith(c, t, layout, RouteShortestHop)
}

// RouteWith is Route with an explicit path-selection strategy.
func RouteWith(c *circuit.Circuit, t *Target, layout Layout, strategy RoutingStrategy) (*RouteResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return routeWith(c, t, layout, strategy)
}

// routeWith is RouteWith for a circuit its caller has validated.
func routeWith(c *circuit.Circuit, t *Target, layout Layout, strategy RoutingStrategy) (*RouteResult, error) {
	if len(layout) < c.NumQubits {
		return nil, fmt.Errorf("transpile: layout covers %d qubits, circuit needs %d", len(layout), c.NumQubits)
	}
	phys := make(Layout, len(layout))
	copy(phys, layout)
	inv := phys.Inverse(t.NumQubits)

	out := circuit.NewLike(c, t.NumQubits)
	swaps := 0
	for i, g := range c.Gates {
		if len(g.Qubits) == 2 && g.Name != circuit.OpBarrier {
			a, b := g.Qubits[0], g.Qubits[1]
			if pa, pb := phys[a], phys[b]; !t.Connected(pa, pb) {
				var path []int
				var err error
				if strategy == RouteFidelityWeighted {
					path, err = t.bestFidelityPath(pa, pb)
				} else {
					path, err = t.shortestPath(pa, pb)
				}
				if err != nil {
					return nil, fmt.Errorf("transpile: gate %d: %w", i, err)
				}
				// Walk pa along the path until adjacent to pb.
				for step := 0; step < len(path)-2; step++ {
					from, to := path[step], path[step+1]
					out.Append(circuit.OpSWAP, nil, from, to)
					swaps++
					// Update the logical<->physical maps.
					la, lb := inv[from], inv[to]
					if la >= 0 {
						phys[la] = to
					}
					if lb >= 0 {
						phys[lb] = from
					}
					inv[from], inv[to] = lb, la
				}
				if pa, pb = phys[a], phys[b]; !t.Connected(pa, pb) {
					return nil, fmt.Errorf("transpile: gate %d: routing failed to make %d,%d adjacent", i, pa, pb)
				}
			}
		}
		// Every operand (a barrier may name any number) moves to where its
		// logical qubit now lives.
		out.Append(g.Name, g.Params, g.Qubits...)
		qs := out.Gates[len(out.Gates)-1].Qubits
		for j, q := range qs {
			qs[j] = phys[q]
		}
	}
	return &RouteResult{
		Circuit:       out,
		InitialLayout: layout,
		FinalLayout:   phys,
		SwapsInserted: swaps,
	}, nil
}
