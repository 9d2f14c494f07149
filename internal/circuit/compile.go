package circuit

import (
	"fmt"

	"repro/internal/quantum"
)

// Compile lowers a circuit into a flat quantum.Program of precomputed
// unitaries, fusing runs of adjacent single-qubit gates on the same qubit
// into one 2x2 matrix. The compiled program applies no per-gate name
// dispatch or matrix construction, so executing it many times pays the
// lowering cost once. Barriers carry no simulation semantics and are
// dropped.
//
// Fusion is exact: single-qubit gates on distinct qubits commute, so
// deferring a qubit's accumulated product until a multi-qubit gate touches
// that qubit (or the circuit ends) preserves the circuit unitary.
func Compile(c *Circuit) (*quantum.Program, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	p := &quantum.Program{NumQubits: c.NumQubits}
	// pending[q] accumulates the product of not-yet-emitted single-qubit
	// gates on q, later-gate-leftmost.
	pending := make([]*quantum.Matrix2, c.NumQubits)
	flush := func(q int) {
		if pending[q] == nil {
			return
		}
		p.Ops = append(p.Ops, quantum.ProgOp{Kind: quantum.ProgOp1Q, Q1: q, M2: *pending[q]})
		pending[q] = nil
	}
	for i, g := range c.Gates {
		if g.Name == OpBarrier {
			continue
		}
		switch len(g.Qubits) {
		case 1:
			m, err := Unitary1(g)
			if err != nil {
				return nil, fmt.Errorf("gate %d: %w", i, err)
			}
			q := g.Qubits[0]
			if pending[q] == nil {
				pending[q] = &m
			} else {
				fused := quantum.Mul2(m, *pending[q])
				pending[q] = &fused
			}
		case 2:
			m, err := Unitary2(g)
			if err != nil {
				return nil, fmt.Errorf("gate %d: %w", i, err)
			}
			flush(g.Qubits[0])
			flush(g.Qubits[1])
			p.Ops = append(p.Ops, quantum.ProgOp{
				Kind: quantum.ProgOp2Q, Q1: g.Qubits[0], Q2: g.Qubits[1], M4: m,
			})
		case 3:
			if g.Name != OpCCX {
				return nil, fmt.Errorf("gate %d: unsupported three-qubit gate %q", i, g.Name)
			}
			flush(g.Qubits[0])
			flush(g.Qubits[1])
			flush(g.Qubits[2])
			p.Ops = append(p.Ops, quantum.ProgOp{
				Kind: quantum.ProgOpToffoli, Q1: g.Qubits[0], Q2: g.Qubits[1], Q3: g.Qubits[2],
			})
		default:
			return nil, fmt.Errorf("gate %d: unsupported arity %d", i, len(g.Qubits))
		}
	}
	for q := 0; q < c.NumQubits; q++ {
		flush(q)
	}
	return p, nil
}
