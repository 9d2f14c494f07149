// Package e2e is the end-to-end half of qbench: it starts the real qhpcd
// binary, drives it over the v2 wire API with net/http, checks every result
// and measures what a user and an operator of the daemon would see. It
// imports nothing from repro/internal, so a refactor of the daemon's
// internals cannot break it — only a change to the wire contract can.
package e2e

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Gate and Circuit mirror the wire shape of a submission's circuit. They are
// the generator's own types: the bodies sent to the daemon are encoded from
// them by hand so the same seed gives the same bytes on every Go version.
type Gate struct {
	Name   string
	Qubits []int
	Params []float64
}

type Circuit struct {
	NumQubits int
	Gates     []Gate
}

// Input is one pre-encoded submission.
type Input struct {
	Body      []byte
	Key       string // Idempotency-Key header ("" on unkeyed workloads)
	Shots     int
	NumQubits int
	// Circ is kept only where the checker needs the ideal distribution:
	// every repeated circuit, and the first TVDSample fresh-parameter inputs.
	Circ *Circuit
	// CircID names a repeated circuit (index into the workload's distinct
	// circuits), or -1 for a fresh-parameter input.
	CircID int
}

// TVDSample is how many inputs of a fresh-parameter workload keep their
// circuit for the total-variation check.
const TVDSample = 20

func (c *Circuit) appendJSON(b []byte) []byte {
	b = append(b, `{"num_qubits":`...)
	b = strconv.AppendInt(b, int64(c.NumQubits), 10)
	b = append(b, `,"gates":[`...)
	for i, g := range c.Gates {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":"`...)
		b = append(b, g.Name...)
		b = append(b, `","qubits":[`...)
		for k, q := range g.Qubits {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(q), 10)
		}
		b = append(b, ']')
		if len(g.Params) > 0 {
			b = append(b, `,"params":[`...)
			for k, p := range g.Params {
				if k > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendFloat(b, p, 'g', -1, 64)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// encodeBody renders the v2 submission body.
func encodeBody(c *Circuit, shots int, user string) []byte {
	b := make([]byte, 0, 64+48*len(c.Gates))
	b = append(b, `{"circuit":`...)
	b = c.appendJSON(b)
	b = append(b, `,"shots":`...)
	b = strconv.AppendInt(b, int64(shots), 10)
	b = append(b, `,"user":"`...)
	b = append(b, user...)
	return append(b, `"}`...)
}

// ansatz is the 5-qubit depth-4 hardware-efficient ansatz a VQE or QAOA
// iteration sends: a layer of rx on every qubit, then cz brickwork.
func ansatz(rng *rand.Rand) *Circuit {
	const n, layers = 5, 4
	c := &Circuit{NumQubits: n}
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.Gates = append(c.Gates, Gate{Name: "rx", Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}})
		}
		for q := l % 2; q+1 < n; q += 2 {
			c.Gates = append(c.Gates, Gate{Name: "cz", Qubits: []int{q, q + 1}})
		}
	}
	return c
}

// randomWide is a 12-qubit depth-4 random circuit: ry+rz on every qubit,
// then cz brickwork along the line.
func randomWide(rng *rand.Rand) *Circuit {
	const n, layers = 12, 4
	c := &Circuit{NumQubits: n}
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.Gates = append(c.Gates,
				Gate{Name: "ry", Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}},
				Gate{Name: "rz", Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}})
		}
		for q := l % 2; q+1 < n; q += 2 {
			c.Gates = append(c.Gates, Gate{Name: "cz", Qubits: []int{q, q + 1}})
		}
	}
	return c
}

func ghz(n int) *Circuit {
	c := &Circuit{NumQubits: n, Gates: []Gate{{Name: "h", Qubits: []int{0}}}}
	for q := 1; q < n; q++ {
		c.Gates = append(c.Gates, Gate{Name: "cx", Qubits: []int{q - 1, q}})
	}
	return c
}

// Generate makes the workload's inputs from seed: count of them, in the
// order the callers take them. The same (workload, seed, count) gives the
// same bytes.
func Generate(w *Workload, seed int64, count int) []Input {
	rng := rand.New(rand.NewSource(seed))
	user := func(i int) string { return "u" + strconv.Itoa(i%w.Users) }
	out := make([]Input, count)
	switch w.Circuits {
	case CircuitsAnsatz:
		for i := range out {
			c := ansatz(rng)
			out[i] = Input{Body: encodeBody(c, w.Shots, user(i)), Shots: w.Shots, NumQubits: c.NumQubits, CircID: -1}
			if i < TVDSample {
				out[i].Circ = c
			}
			if w.Keyed {
				out[i].Key = fmt.Sprintf("k-%d-%d", seed, i)
			}
		}
	case CircuitsGHZ, CircuitsWide:
		var circs []*Circuit
		if w.Circuits == CircuitsGHZ {
			for n := 3; n <= 6; n++ {
				circs = append(circs, ghz(n))
			}
		} else {
			for k := 0; k < 8; k++ {
				circs = append(circs, randomWide(rng))
			}
		}
		// One body per (circuit, user); the order of inputs is drawn from
		// the seed so repeats do not arrive in lockstep.
		bodies := make([][]byte, len(circs)*w.Users)
		for ci, c := range circs {
			for u := 0; u < w.Users; u++ {
				bodies[ci*w.Users+u] = encodeBody(c, w.Shots, user(u))
			}
		}
		for i := range out {
			ci := rng.Intn(len(circs))
			out[i] = Input{Body: bodies[ci*w.Users+i%w.Users], Shots: w.Shots, NumQubits: circs[ci].NumQubits, Circ: circs[ci], CircID: ci}
		}
	}
	return out
}
