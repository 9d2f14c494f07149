package transpile

import (
	"fmt"
	"sort"
)

// PlacementStrategy selects how logical qubits map to physical qubits.
type PlacementStrategy int

const (
	// PlaceStatic maps logical qubit i to physical qubit i — the layout a
	// compiler uses when it knows nothing about the device's current state.
	PlaceStatic PlacementStrategy = iota
	// PlaceFidelityAware searches the device for a chain of qubits with the
	// best live fidelities (QDMI/telemetry-driven JIT placement). On a
	// drifted or TLS-hit device this dodges bad qubits.
	PlaceFidelityAware
)

func (p PlacementStrategy) String() string {
	switch p {
	case PlaceStatic:
		return "static"
	case PlaceFidelityAware:
		return "fidelity-aware"
	}
	return fmt.Sprintf("strategy(%d)", int(p))
}

// Layout maps logical qubit index -> physical qubit index.
type Layout []int

// Inverse returns the physical -> logical map (-1 for unused physicals).
func (l Layout) Inverse(numPhysical int) []int {
	inv := make([]int, numPhysical)
	l.inverseInto(inv)
	return inv
}

// inverseInto writes the physical -> logical map into inv, one entry per
// physical qubit.
func (l Layout) inverseInto(inv []int) {
	for i := range inv {
		inv[i] = -1
	}
	for logical, phys := range l {
		inv[phys] = logical
	}
}

// Place computes a layout for k logical qubits on the target, once per
// (k, strategy): later calls get a copy of the first call's layout.
func Place(k int, t *Target, strategy PlacementStrategy) (Layout, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	l, err := place(k, t, strategy)
	if err != nil {
		return nil, err
	}
	return append(Layout(nil), l...), nil
}

// place is Place for a validated target, returning the target's own copy of
// the layout: nobody may write it.
func place(k int, t *Target, strategy PlacementStrategy) (Layout, error) {
	if k < 1 || k > t.NumQubits {
		return nil, fmt.Errorf("transpile: cannot place %d logical qubits on %d physical", k, t.NumQubits)
	}
	t.placeMu.Lock()
	defer t.placeMu.Unlock()
	key := [2]int{k, int(strategy)}
	l, ok := t.placed[key]
	if !ok {
		switch strategy {
		case PlaceStatic:
			l = make(Layout, k)
			for i := range l {
				l[i] = i
			}
		case PlaceFidelityAware:
			var err error
			if l, _, err = placeFidelityAware(k, t); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("transpile: unknown placement strategy %d", strategy)
		}
		if t.placed == nil {
			t.placed = map[[2]int]Layout{}
		}
		t.placed[key] = l
	}
	return l, nil
}

// placeBudget bounds one search, in candidates tried; each of the placeSeeds
// best seed edges gets an equal share, so one in a corner pocket cannot
// spend it all.
const placeBudget, placeSeeds = 4096, 8

// placeFidelityAware searches depth-first for a k-qubit physical path and
// reports the candidates it tried. Logical qubit i maps to the i-th path
// element, so consecutive logical qubits are physically adjacent and
// chain-structured circuits (GHZ/VQE/QAOA) route without SWAPs — placement
// quality must not be paid back as routing overhead. A step's candidates
// are the free neighbours of the path's tail, then of its head, best score
// (1q × readout × connecting coupler fidelity) first: the first descent is
// the greedy walk at the end of this function, so a layout that walk finds
// unbroken comes back unchanged, and a dead end backs up to the last choice
// that had an alternative. Only when no k-chain exists or the budget runs
// out is the result that walk's, chain break and all.
func placeFidelityAware(k int, t *Target) (Layout, int, error) {
	if len(t.Edges) == 0 {
		if k > 1 {
			return nil, 0, fmt.Errorf("transpile: target has no couplers, cannot place %d qubits", k)
		}
		// Single qubit: pick the best one.
		best, bestScore := 0, -1.0
		for q := 0; q < t.NumQubits; q++ {
			if s := t.f1q(q) * t.fread(q); s > bestScore {
				best, bestScore = q, s
			}
		}
		return Layout{best}, 0, nil
	}

	qubitScore := func(q int) float64 { return t.f1q(q) * t.fread(q) }
	edgeScore := func(e [2]int) float64 { return t.fcz(e[0], e[1]) * qubitScore(e[0]) * qubitScore(e[1]) }
	// Seed edges, best product of coupler and endpoint scores first.
	seeds := append([][2]int(nil), t.Edges...)
	sort.SliceStable(seeds, func(i, j int) bool { return edgeScore(seeds[i]) > edgeScore(seeds[j]) })

	adj := t.adjacency()
	// buf[lo:hi] is the path, grown at either end; grow puts c on it.
	type cand struct {
		q, from int
		s       float64
	}
	buf, used, tried, limit := make([]int, 2*k), make([]bool, t.NumQubits), 0, 0
	grow := func(lo, hi int, c cand) (int, int) {
		used[c.q] = true
		if c.from == 1 {
			buf[lo-1] = c.q
			return lo - 1, hi
		}
		buf[hi] = c.q
		return lo, hi + 1
	}
	// cands lists the free neighbours of the given path members, best score
	// first; ties keep the order of from, then the lower index.
	cands := func(from ...int) []cand {
		var cs []cand
		for i, q := range from {
			for _, nb := range adj[q] {
				if !used[nb] {
					cs = append(cs, cand{nb, i, qubitScore(nb) * t.fcz(q, nb)})
				}
			}
		}
		sort.SliceStable(cs, func(i, j int) bool { return cs[i].s > cs[j].s })
		return cs
	}
	var extend func(lo, hi int) bool
	extend = func(lo, hi int) bool {
		if hi-lo >= k {
			copy(buf, buf[lo:hi])
			return true
		}
		// Prune: the free qubits reachable from the two ends must cover
		// what the path still lacks.
		seen, reach := make([]bool, t.NumQubits), 0
		for stack := []int{buf[hi-1], buf[lo]}; len(stack) > 0; {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range adj[q] {
				if !used[nb] && !seen[nb] {
					seen[nb], reach, stack = true, reach+1, append(stack, nb)
				}
			}
		}
		if reach < k-(hi-lo) {
			return false
		}
		for _, c := range cands(buf[hi-1], buf[lo]) {
			if tried == limit {
				return false
			}
			tried++
			if extend(grow(lo, hi, c)) {
				return true
			}
			used[c.q] = false
		}
		return false
	}
	lo, hi := k-1, k+1
	for _, seed := range seeds[:min(len(seeds), placeSeeds)] {
		limit = tried + placeBudget/placeSeeds
		buf[lo], buf[lo+1] = seed[0], seed[1]
		used[seed[0]], used[seed[1]] = true, true
		if extend(lo, hi) {
			return Layout(buf[:k:k]), tried, nil
		}
		used[seed[0]], used[seed[1]] = false, false
	}
	// The greedy walk from the best seed edge: take the best candidate, never
	// back up; when both ends are stuck, grow from any path member (best
	// score, then lowest index) and accept a chain break.
	buf[lo], buf[lo+1] = seeds[0][0], seeds[0][1]
	used[buf[lo]], used[buf[lo+1]] = true, true
	for hi-lo < k {
		cs := cands(buf[hi-1], buf[lo])
		if len(cs) == 0 {
			if cs = cands(buf[lo:hi]...); len(cs) == 0 {
				return nil, tried, fmt.Errorf("transpile: connected region exhausted at %d of %d qubits", hi-lo, k)
			}
			sort.Slice(cs, func(i, j int) bool { return cs[i].s > cs[j].s || cs[i].s == cs[j].s && cs[i].q < cs[j].q })
			cs[0].from = 0
		}
		lo, hi = grow(lo, hi, cs[0])
	}
	return append(Layout(nil), buf[lo:hi]...), tried, nil
}
