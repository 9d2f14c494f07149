package device

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// NativeGHZLine builds a native-gate GHZ preparation along the grid's first
// row, qubits 0..n-1 (line connectivity), without the transpiler:
// H = RZ(pi) then PRX(pi/2, pi/2); CNOT(c,t) = H(t) CZ(c,t) H(t). It is the
// standard workload of the executor benches and equivalence tests.
func NativeGHZLine(n int) *circuit.Circuit {
	c := circuit.New(n, fmt.Sprintf("native-ghz-%d", n))
	h := func(q int) {
		c.RZ(q, math.Pi)
		c.PRX(q, math.Pi/2, math.Pi/2)
	}
	h(0)
	for q := 1; q < n; q++ {
		h(q)
		c.CZ(q-1, q)
		h(q)
	}
	return c
}

// snakePath45 returns the first n qubits of the boustrophedon walk over the
// 4x5 grid (the 20-qubit device): row 0 left-to-right, row 1 right-to-left,
// and so on. Consecutive path entries are always grid neighbours, so CZs
// along the path sit on real couplers at any width up to 20.
func snakePath45(n int) []int {
	const cols = 5
	path := make([]int, 0, n)
	for r := 0; len(path) < n; r++ {
		for c := 0; c < cols && len(path) < n; c++ {
			col := c
			if r%2 == 1 {
				col = cols - 1 - c
			}
			path = append(path, r*cols+col)
		}
	}
	return path
}

// registerFor sizes a circuit register to the highest physical qubit a path
// touches, so narrow workloads keep their readout model narrow.
func registerFor(path []int) int {
	max := 0
	for _, q := range path {
		if q > max {
			max = q
		}
	}
	return max + 1
}

// NativeGHZSnake builds the native GHZ preparation along the snake path of
// the 4x5 grid — the widths-beyond-one-row generalization of NativeGHZLine
// (identical to it for n <= 5).
func NativeGHZSnake(n int) *circuit.Circuit {
	path := snakePath45(n)
	c := circuit.New(registerFor(path), fmt.Sprintf("native-ghz-snake-%d", n))
	h := func(q int) {
		c.RZ(q, math.Pi)
		c.PRX(q, math.Pi/2, math.Pi/2)
	}
	h(path[0])
	for i := 1; i < n; i++ {
		h(path[i])
		c.CZ(path[i-1], path[i])
		h(path[i])
	}
	return c
}
