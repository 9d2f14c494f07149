// Package device models the 20-qubit superconducting QPU: its square-grid
// topology with tunable couplers, the per-qubit and per-coupler calibration
// record, physically-motivated parameter drift (the reason quantum computers
// need regular recalibration, lesson 2 of the paper), and a circuit executor
// that turns the calibration record into gate noise on the state-vector
// simulator. A "digital twin" mode executes noiselessly, matching the
// emulator LRZ used for user onboarding (§4).
package device

import (
	"fmt"
	"sort"
)

// Topology is an undirected coupling graph over physical qubits.
type Topology struct {
	n     int
	edges [][2]int // sorted, each (low, high)
	// coupler[a*n+b] is the index in edges of the coupler between a and b,
	// -1 when they share none.
	coupler []int
	adj     map[int][]int
}

// NewTopology builds a topology over n qubits with the given edges.
func NewTopology(n int, edges [][2]int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("device: topology needs at least one qubit")
	}
	t := &Topology{n: n, coupler: make([]int, n*n), adj: make(map[int][]int)}
	for i := range t.coupler {
		t.coupler[i] = -1
	}
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, fmt.Errorf("device: edge (%d,%d) out of range [0,%d)", a, b, n)
		}
		if a == b {
			return nil, fmt.Errorf("device: self-loop on qubit %d", a)
		}
		if t.Connected(a, b) {
			continue
		}
		t.coupler[a*n+b], t.coupler[b*n+a] = 0, 0
		t.edges = append(t.edges, edgeKey(a, b))
		t.adj[a] = append(t.adj[a], b)
		t.adj[b] = append(t.adj[b], a)
	}
	sort.Slice(t.edges, func(i, j int) bool {
		if t.edges[i][0] != t.edges[j][0] {
			return t.edges[i][0] < t.edges[j][0]
		}
		return t.edges[i][1] < t.edges[j][1]
	})
	for i, e := range t.edges {
		t.coupler[e[0]*n+e[1]], t.coupler[e[1]*n+e[0]] = i, i
	}
	for q := range t.adj {
		sort.Ints(t.adj[q])
	}
	return t, nil
}

// SquareGrid returns the rows x cols nearest-neighbour grid — the paper's
// QPU is 20 transmons "in a square grid topology, where tunable couplers
// mediate the connection between each qubit pair".
func SquareGrid(rows, cols int) *Topology {
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
	t, err := NewTopology(rows*cols, edges)
	if err != nil {
		panic(err) // impossible for a well-formed grid
	}
	return t
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// NumQubits returns the number of physical qubits.
func (t *Topology) NumQubits() int { return t.n }

// Connected reports whether qubits a and b share a coupler.
func (t *Topology) Connected(a, b int) bool { return t.coupler[a*t.n+b] >= 0 }

// Neighbors returns the sorted neighbour list of q.
func (t *Topology) Neighbors(q int) []int { return t.adj[q] }

// Edges returns all coupler edges in deterministic order.
func (t *Topology) Edges() [][2]int { return append([][2]int(nil), t.edges...) }

// ShortestPath returns a minimal-hop qubit path from a to b (inclusive), or
// an error if none exists. BFS with deterministic neighbour order.
func (t *Topology) ShortestPath(a, b int) ([]int, error) {
	if a < 0 || a >= t.n || b < 0 || b >= t.n {
		return nil, fmt.Errorf("device: path endpoints (%d,%d) out of range", a, b)
	}
	if a == b {
		return []int{a}, nil
	}
	prev := make(map[int]int, t.n)
	prev[a] = a
	queue := []int{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.adj[cur] {
			if _, seen := prev[nb]; seen {
				continue
			}
			prev[nb] = cur
			if nb == b {
				// Reconstruct.
				path := []int{b}
				for p := cur; ; p = prev[p] {
					path = append(path, p)
					if p == a {
						break
					}
				}
				// Reverse.
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, nil
			}
			queue = append(queue, nb)
		}
	}
	return nil, fmt.Errorf("device: qubits %d and %d are not connected", a, b)
}

// Distance returns the hop count between a and b, or -1 if disconnected.
func (t *Topology) Distance(a, b int) int {
	p, err := t.ShortestPath(a, b)
	if err != nil {
		return -1
	}
	return len(p) - 1
}

// CouplingMap renders the topology in the per-qubit adjacency format users
// asked for during onboarding ("access to qubit coupling maps", §4).
func (t *Topology) CouplingMap() map[int][]int {
	out := make(map[int][]int, t.n)
	for q := 0; q < t.n; q++ {
		out[q] = append([]int(nil), t.adj[q]...)
	}
	return out
}
