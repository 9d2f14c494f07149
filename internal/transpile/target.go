// Package transpile lowers frontend circuits to the QPU's native gate set
// {PRX, RZ, CZ}, places logical qubits onto physical qubits, routes
// two-qubit gates through the coupling graph with SWAP insertion, and runs
// peephole optimization. The placement pass can consume live calibration
// data, implementing the telemetry-aware just-in-time transpilation the
// paper highlights (§2.6, §3.1: "just-in-time quantum circuit transpilation
// can reduce noise", citing Wilson et al.).
package transpile

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Target describes the hardware a circuit is compiled for: connectivity and
// (optionally) live per-qubit and per-coupler fidelities delivered through
// the QDMI interface. The transpiler only reads these fields (what it
// derives — adjacency, placements — it keeps below, synchronised), so one
// Target may be shared by concurrent Transpile calls (QDMI hands every
// compile of an epoch the same one); do not copy or edit it after first use.
type Target struct {
	NumQubits int
	Edges     [][2]int
	// Live fidelities. May be nil, in which case placement treats the
	// device as uniform.
	F1Q   []float64
	FRead []float64
	FCZ   map[[2]int]float64

	adjOnce sync.Once
	adj     map[int][]int
	edgeSet map[[2]int]bool
	placeMu sync.Mutex
	placed  map[[2]int]Layout // Place's layouts by (k, strategy)
}

// Validate checks the target's internal consistency.
func (t *Target) Validate() error {
	if t.NumQubits < 1 {
		return fmt.Errorf("transpile: target has %d qubits", t.NumQubits)
	}
	for _, e := range t.Edges {
		if e[0] < 0 || e[0] >= t.NumQubits || e[1] < 0 || e[1] >= t.NumQubits || e[0] == e[1] {
			return fmt.Errorf("transpile: bad edge %v", e)
		}
	}
	if t.F1Q != nil && len(t.F1Q) != t.NumQubits {
		return fmt.Errorf("transpile: F1Q has %d entries for %d qubits", len(t.F1Q), t.NumQubits)
	}
	if t.FRead != nil && len(t.FRead) != t.NumQubits {
		return fmt.Errorf("transpile: FRead has %d entries for %d qubits", len(t.FRead), t.NumQubits)
	}
	return nil
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Connected reports whether physical qubits a and b share a coupler.
func (t *Target) Connected(a, b int) bool {
	t.adjacency()
	return t.edgeSet[edgeKey(a, b)]
}

// adjacency builds (once) the adjacency map and edge set; it returns the map.
func (t *Target) adjacency() map[int][]int {
	t.adjOnce.Do(func() {
		adj := make(map[int][]int, t.NumQubits)
		t.edgeSet = make(map[[2]int]bool, len(t.Edges))
		for _, e := range t.Edges {
			t.edgeSet[e] = true
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		for q := range adj {
			sort.Ints(adj[q])
		}
		t.adj = adj
	})
	return t.adj
}

// shortestPath returns a minimal-hop path from a to b over the target.
func (t *Target) shortestPath(a, b int) ([]int, error) {
	if a == b {
		return []int{a}, nil
	}
	adj := t.adjacency()
	prev := map[int]int{a: a}
	queue := []int{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if _, seen := prev[nb]; seen {
				continue
			}
			prev[nb] = cur
			if nb == b {
				path := []int{b}
				for p := cur; ; p = prev[p] {
					path = append(path, p)
					if p == a {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, nil
			}
			queue = append(queue, nb)
		}
	}
	return nil, fmt.Errorf("transpile: physical qubits %d and %d not connected", a, b)
}

// f1q returns the single-qubit fidelity of physical qubit q (1 if unknown).
func (t *Target) f1q(q int) float64 {
	if t.F1Q == nil {
		return 1
	}
	return t.F1Q[q]
}

// fread returns the readout fidelity of q (1 if unknown).
func (t *Target) fread(q int) float64 {
	if t.FRead == nil {
		return 1
	}
	return t.FRead[q]
}

// bestFidelityPath returns the qubit path from a to b minimizing the
// fidelity cost of SWAP-routing along it: each hop is a SWAP, which costs
// three CZs on that coupler plus twelve single-qubit gates on its endpoints,
// so the Dijkstra edge weight is 3·(-log fcz) + 6·(-log f1q) per endpoint.
// With uniform fidelities this degenerates to a shortest-hop path; when a
// coupler is badly degraded (a TLS parked on it), the router detours —
// three CZs through a 0.6 coupler cost more fidelity than six through 0.99
// ones.
func (t *Target) bestFidelityPath(a, b int) ([]int, error) {
	if a == b {
		return []int{a}, nil
	}
	adj := t.adjacency()
	const inf = 1e300
	dist := make(map[int]float64, t.NumQubits)
	prev := make(map[int]int, t.NumQubits)
	visited := make(map[int]bool, t.NumQubits)
	dist[a] = 0
	for {
		// Extract the unvisited node with the smallest distance. Linear
		// scan is fine at 20-qubit scale.
		cur, best := -1, inf
		for q, d := range dist {
			if !visited[q] && d < best {
				cur, best = q, d
			}
		}
		if cur == -1 {
			return nil, fmt.Errorf("transpile: physical qubits %d and %d not connected", a, b)
		}
		if cur == b {
			break
		}
		visited[cur] = true
		for _, nb := range adj[cur] {
			f := t.fcz(cur, nb)
			if f <= 0 {
				continue
			}
			w := -3*logFid(f) - 6*logFid(t.f1q(cur)) - 6*logFid(t.f1q(nb))
			if nd := dist[cur] + w; nd < distOr(dist, nb, inf) {
				dist[nb] = nd
				prev[nb] = cur
			}
		}
	}
	path := []int{b}
	for p := b; p != a; {
		p = prev[p]
		path = append(path, p)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

func distOr(m map[int]float64, k int, def float64) float64 {
	if v, ok := m[k]; ok {
		return v
	}
	return def
}

// logFid guards log of near-zero fidelities.
func logFid(f float64) float64 {
	if f < 1e-12 {
		f = 1e-12
	}
	return math.Log(f)
}

// fcz returns the CZ fidelity of the coupler (a,b); 1 if unknown, 0 if the
// pair is not an edge.
func (t *Target) fcz(a, b int) float64 {
	if !t.Connected(a, b) {
		return 0
	}
	if f, ok := t.FCZ[edgeKey(a, b)]; ok {
		return f
	}
	return 1
}
