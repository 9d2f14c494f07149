package transpile

import (
	"math"

	"repro/internal/circuit"
)

// angleEps below which a rotation is treated as identity.
const angleEps = 1e-12

// Optimize runs peephole passes over a native-gate circuit until a fixed
// point:
//
//   - consecutive RZ on the same qubit merge into one (dropped if ≈ 0 mod 2π);
//   - consecutive PRX with the same phase axis on the same qubit merge
//     (PRX(θ₁,φ)·PRX(θ₂,φ) = PRX(θ₁+θ₂,φ), dropped if θ ≈ 0 mod 4π... in
//     practice mod 2π up to global phase, which is what matters here);
//   - adjacent identical CZ pairs cancel (CZ² = I).
//
// "Consecutive" means no intervening gate touches the involved qubits.
// Barriers block all merging across them. The input is only read: every pass
// writes a circuit of its own.
func Optimize(c *circuit.Circuit) *circuit.Circuit {
	return optimize(c, new(Scratch))
}

// optimize is Optimize with its passes written into s.
func optimize(c *circuit.Circuit, s *Scratch) *circuit.Circuit {
	for {
		next, changed := optimizeOnce(c, s)
		if !changed {
			return next
		}
		c = next
	}
}

func optimizeOnce(c *circuit.Circuit, s *Scratch) (*circuit.Circuit, bool) {
	out := s.circuit(c, c.NumQubits)
	// lastGate[q] is the index in out.Gates of the last gate touching q,
	// or -1.
	lastGate := s.ints(c.NumQubits)
	for i := range lastGate {
		lastGate[i] = -1
	}
	// A cancelled gate stays in out as a nameless tombstone, so the indices in
	// lastGate hold, until the compaction below; nothing reads one, because
	// cancelling clears lastGate for every qubit the gate touched.
	cancelled := 0
	cancel := func(li int) {
		for _, q := range out.Gates[li].Qubits {
			lastGate[q] = -1
		}
		out.Gates[li].Name = ""
		cancelled++
	}
	changed := false

	for _, g := range c.Gates {
		idx := len(out.Gates)
		if g.Name == circuit.OpBarrier && len(g.Qubits) == 0 {
			out.Append(g.Name, g.Params)
			for q := range lastGate {
				lastGate[q] = idx
			}
			continue
		}
		switch g.Name {
		case circuit.OpRZ, circuit.OpPRX:
			// Params[0] is the rotation angle of both; a PRX also has to
			// agree on its phase axis to merge.
			if li := lastGate[g.Qubits[0]]; li >= 0 && out.Gates[li].Name == g.Name &&
				(g.Name == circuit.OpRZ || math.Abs(normAngle(out.Gates[li].Params[1]-g.Params[1])) < angleEps) {
				changed = true
				if sum := normAngle(out.Gates[li].Params[0] + g.Params[0]); math.Abs(sum) < angleEps {
					cancel(li)
				} else {
					out.Gates[li].Params[0] = sum
				}
				continue
			}
			if math.Abs(normAngle(g.Params[0])) < angleEps {
				changed = true
				continue
			}
		case circuit.OpCZ:
			la, lb := lastGate[g.Qubits[0]], lastGate[g.Qubits[1]]
			if la >= 0 && la == lb && out.Gates[la].Name == circuit.OpCZ && sameEdge(out.Gates[la].Qubits, g.Qubits) {
				cancel(la)
				changed = true
				continue
			}
		}
		out.Append(g.Name, g.Params, g.Qubits...)
		for _, q := range g.Qubits {
			lastGate[q] = idx
		}
	}

	if cancelled > 0 {
		kept := out.Gates[:0]
		for _, g := range out.Gates {
			if g.Name != "" {
				kept = append(kept, g)
			}
		}
		out.Gates = kept
	}
	return out, changed
}

func sameEdge(a, b []int) bool {
	return (a[0] == b[0] && a[1] == b[1]) || (a[0] == b[1] && a[1] == b[0])
}

// normAngle maps an angle into (-π, π].
func normAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a > math.Pi {
		a -= 2 * math.Pi
	}
	if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
