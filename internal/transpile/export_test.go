package transpile

import "fmt"

// PlaceBudget and SearchChain let the external device-grid property test
// (place_devices_test.go, which imports core) bound the search's work.
const PlaceBudget = placeBudget

var SearchChain = placeFidelityAware

// ParentWalk is fidelity-aware placement as it was before the search,
// verbatim: the greedy walk from the first strictly best seed edge, growing
// anywhere when both ends are stuck. It is the reference the search's
// first descent and fallback are held to.
func ParentWalk(k int, t *Target) (Layout, error) {
	if len(t.Edges) == 0 {
		if k > 1 {
			return nil, fmt.Errorf("transpile: target has no couplers, cannot place %d qubits", k)
		}
		// Single qubit: pick the best one.
		best, bestScore := 0, -1.0
		for q := 0; q < t.NumQubits; q++ {
			if s := t.f1q(q) * t.fread(q); s > bestScore {
				best, bestScore = q, s
			}
		}
		return Layout{best}, nil
	}

	qubitScore := func(q int) float64 { return t.f1q(q) * t.fread(q) }

	// Seed: the edge with the best product of coupler and endpoint scores.
	var seed [2]int
	bestScore := -1.0
	for _, e := range t.Edges {
		s := t.fcz(e[0], e[1]) * qubitScore(e[0]) * qubitScore(e[1])
		if s > bestScore {
			bestScore, seed = s, e
		}
	}

	adj := t.adjacency()
	// Grow a *path* from the seed edge, extending whichever end has the
	// best-scoring unvisited neighbour. Consecutive logical qubits then sit
	// on physically adjacent qubits, so chain-entangling circuits
	// (GHZ/VQE/QAOA) route without SWAPs — placement quality must not be
	// paid back as routing overhead. If both ends dead-end (odd region
	// shapes), fall back to growing anywhere and accept a chain break.
	path := []int{seed[0]}
	selected := map[int]bool{seed[0]: true}
	if k > 1 {
		path = append(path, seed[1])
		selected[seed[1]] = true
	}
	bestNeighbor := func(q int) (int, float64) {
		bq, bs := -1, -1.0
		for _, nb := range adj[q] {
			if selected[nb] {
				continue
			}
			if s := qubitScore(nb) * t.fcz(q, nb); s > bs || (s == bs && nb < bq) {
				bs, bq = s, nb
			}
		}
		return bq, bs
	}
	for len(path) < k {
		head, tail := path[0], path[len(path)-1]
		hq, hs := bestNeighbor(head)
		tq, ts := bestNeighbor(tail)
		switch {
		case tq >= 0 && (hq < 0 || ts >= hs):
			path = append(path, tq)
			selected[tq] = true
		case hq >= 0:
			path = append([]int{hq}, path...)
			selected[hq] = true
		default:
			// Both ends stuck: grow from any path member (deterministic
			// order), breaking the chain.
			bq, bs := -1, -1.0
			for _, q := range path {
				if nq, ns := bestNeighbor(q); nq >= 0 && (ns > bs || (ns == bs && nq < bq)) {
					bq, bs = nq, ns
				}
			}
			if bq < 0 {
				return nil, fmt.Errorf("transpile: connected region exhausted at %d of %d qubits", len(path), k)
			}
			path = append(path, bq)
			selected[bq] = true
		}
	}
	return Layout(path), nil
}
