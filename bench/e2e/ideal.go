package e2e

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrHarness marks a fault of the harness itself: the run that met it is a
// HARNESS_BUG, not a wrong result of the daemon.
var ErrHarness = errors.New("harness fault")

// Ideal returns the noiseless outcome distribution of c, index bit q being
// qubit q. It is the checker's own reference simulator — a few dozen lines
// that share no code with the daemon's engine, so an engine bug cannot hide
// in both — and knows exactly the gates the generator emits.
func Ideal(c *Circuit) ([]float64, error) {
	amp := make([]complex128, 1<<c.NumQubits)
	amp[0] = 1
	for _, g := range c.Gates {
		switch g.Name {
		case "h":
			s := complex(1/math.Sqrt2, 0)
			apply1(amp, g.Qubits[0], [4]complex128{s, s, s, -s})
		case "rx":
			co, si := math.Cos(g.Params[0]/2), math.Sin(g.Params[0]/2)
			apply1(amp, g.Qubits[0], [4]complex128{complex(co, 0), complex(0, -si), complex(0, -si), complex(co, 0)})
		case "ry":
			co, si := math.Cos(g.Params[0]/2), math.Sin(g.Params[0]/2)
			apply1(amp, g.Qubits[0], [4]complex128{complex(co, 0), complex(-si, 0), complex(si, 0), complex(co, 0)})
		case "rz":
			apply1(amp, g.Qubits[0], [4]complex128{cmplx.Exp(complex(0, -g.Params[0]/2)), 0, 0, cmplx.Exp(complex(0, g.Params[0]/2))})
		case "cz":
			a, b := 1<<g.Qubits[0], 1<<g.Qubits[1]
			for i := range amp {
				if i&a != 0 && i&b != 0 {
					amp[i] = -amp[i]
				}
			}
		case "cx":
			ctl, tgt := 1<<g.Qubits[0], 1<<g.Qubits[1]
			for i := range amp {
				if i&ctl != 0 && i&tgt == 0 {
					amp[i], amp[i|tgt] = amp[i|tgt], amp[i]
				}
			}
		default:
			return nil, fmt.Errorf("%w: the generator emitted gate %q, which the reference simulator does not know", ErrHarness, g.Name)
		}
	}
	p := make([]float64, len(amp))
	for i, a := range amp {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p, nil
}

// apply1 applies the 2x2 matrix m (row-major) to qubit q.
func apply1(amp []complex128, q int, m [4]complex128) {
	bit := 1 << q
	for i := range amp {
		if i&bit == 0 {
			a0, a1 := amp[i], amp[i|bit]
			amp[i] = m[0]*a0 + m[1]*a1
			amp[i|bit] = m[2]*a0 + m[3]*a1
		}
	}
}

// TVD is the total-variation distance between a histogram of logical
// outcomes and a distribution over the same indices.
func TVD(counts map[int]int, p []float64) float64 {
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 1
	}
	d := 0.0
	for i, pi := range p {
		d += math.Abs(float64(counts[i])/float64(total) - pi)
	}
	return d / 2
}
