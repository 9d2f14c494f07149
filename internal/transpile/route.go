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
	// after routing (SWAPs permute the mapping). With no SWAP inserted,
	// FinalLayout is InitialLayout, the layout the router was handed.
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
	r, err := routeWith(c, t, layout, strategy, new(Scratch))
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// routeWith is RouteWith for a circuit its caller has validated, written into
// s. The final layout is the initial one when no SWAP moved a qubit.
func routeWith(c *circuit.Circuit, t *Target, layout Layout, strategy RoutingStrategy, s *Scratch) (RouteResult, error) {
	if len(layout) < c.NumQubits {
		return RouteResult{}, fmt.Errorf("transpile: layout covers %d qubits, circuit needs %d", len(layout), c.NumQubits)
	}
	// phys is logical -> physical as the SWAPs leave it, inv its inverse
	// (-1 for an unused physical qubit).
	tab := s.ints(len(layout) + t.NumQubits)
	phys, inv := Layout(tab[:len(layout)]), tab[len(layout):]
	copy(phys, layout)
	phys.inverseInto(inv)

	out := s.circuit(c, t.NumQubits)
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
					return RouteResult{}, fmt.Errorf("transpile: gate %d: %w", i, err)
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
					return RouteResult{}, fmt.Errorf("transpile: gate %d: routing failed to make %d,%d adjacent", i, pa, pb)
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
	final := layout
	if swaps > 0 {
		final = append(Layout(nil), phys...)
	}
	return RouteResult{
		Circuit:       out,
		InitialLayout: layout,
		FinalLayout:   final,
		SwapsInserted: swaps,
	}, nil
}
