package transpile

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// Decompose lowers every gate to the native set {PRX, RZ, CZ}, preserving
// barriers. The output is a new circuit over the same register.
//
// Identities used (all up to global phase):
//
//	H        = PRX(π/2, π/2) · RZ(π)        (apply RZ first)
//	X        = PRX(π, 0)
//	Y        = PRX(π, π/2)
//	Z,S,T,…  = RZ(θ)                         (virtual, error-free)
//	RX(θ)    = PRX(θ, 0)
//	RY(θ)    = PRX(θ, π/2)
//	CNOT c,t = H(t) · CZ(c,t) · H(t)
//	SWAP a,b = CNOT(a,b) · CNOT(b,a) · CNOT(a,b)
func Decompose(c *circuit.Circuit) (*circuit.Circuit, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return decompose(c, new(Scratch))
}

// decompose is Decompose for a circuit its caller has validated, written into
// s.
func decompose(c *circuit.Circuit, s *Scratch) (*circuit.Circuit, error) {
	out := s.circuit(c, c.NumQubits)
	for _, g := range c.Gates {
		if err := lowerGate(out, g); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func lowerGate(out *circuit.Circuit, g circuit.Gate) error {
	emitH := func(q int) {
		out.RZ(q, math.Pi)
		out.PRX(q, math.Pi/2, math.Pi/2)
	}
	emitCNOT := func(c, t int) {
		emitH(t)
		out.CZ(c, t)
		emitH(t)
	}
	switch g.Name {
	case circuit.OpBarrier, circuit.OpPRX, circuit.OpRZ, circuit.OpCZ:
		out.Append(g.Name, g.Params, g.Qubits...)
	case circuit.OpH:
		emitH(g.Qubits[0])
	case circuit.OpX:
		out.PRX(g.Qubits[0], math.Pi, 0)
	case circuit.OpY:
		out.PRX(g.Qubits[0], math.Pi, math.Pi/2)
	case circuit.OpZ:
		out.RZ(g.Qubits[0], math.Pi)
	case circuit.OpS:
		out.RZ(g.Qubits[0], math.Pi/2)
	case circuit.OpSdag:
		out.RZ(g.Qubits[0], -math.Pi/2)
	case circuit.OpT:
		out.RZ(g.Qubits[0], math.Pi/4)
	case circuit.OpTdag:
		out.RZ(g.Qubits[0], -math.Pi/4)
	case circuit.OpRX:
		out.PRX(g.Qubits[0], g.Params[0], 0)
	case circuit.OpRY:
		out.PRX(g.Qubits[0], g.Params[0], math.Pi/2)
	case circuit.OpU3:
		// U3(θ, φ, λ) = RZ(φ)·RY(θ)·RZ(λ), λ applied first.
		q := g.Qubits[0]
		out.RZ(q, g.Params[2])
		out.PRX(q, g.Params[0], math.Pi/2)
		out.RZ(q, g.Params[1])
	case circuit.OpCNOT:
		emitCNOT(g.Qubits[0], g.Qubits[1])
	case circuit.OpCRZ:
		// CRZ(θ) = [RZ(θ/2) on t] · CNOT · [RZ(-θ/2) on t] · CNOT.
		c, t := g.Qubits[0], g.Qubits[1]
		theta := g.Params[0]
		out.RZ(t, theta/2)
		emitCNOT(c, t)
		out.RZ(t, -theta/2)
		emitCNOT(c, t)
	case circuit.OpCCX:
		// Canonical 6-CNOT Toffoli: H(t), then T/T† (RZ(±π/4)) between CNOTs.
		a, b, t := g.Qubits[0], g.Qubits[1], g.Qubits[2]
		emitH(t)
		emitCNOT(b, t)
		out.RZ(t, -math.Pi/4)
		emitCNOT(a, t)
		out.RZ(t, math.Pi/4)
		emitCNOT(b, t)
		out.RZ(t, -math.Pi/4)
		emitCNOT(a, t)
		out.RZ(b, math.Pi/4)
		out.RZ(t, math.Pi/4)
		emitH(t)
		emitCNOT(a, b)
		out.RZ(a, math.Pi/4)
		out.RZ(b, -math.Pi/4)
		emitCNOT(a, b)
	case circuit.OpSWAP:
		a, b := g.Qubits[0], g.Qubits[1]
		emitCNOT(a, b)
		emitCNOT(b, a)
		emitCNOT(a, b)
	default:
		return fmt.Errorf("transpile: no decomposition for gate %q", g.Name)
	}
	return nil
}
