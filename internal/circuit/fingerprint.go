package circuit

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Fingerprint returns a structural hash of the circuit: qubit count plus
// every gate's name, operand qubits, and parameter bit patterns, in order.
// The circuit's display name is deliberately excluded — two identically
// structured programs hash equal regardless of labelling. A device's
// calibration epoch keys its compile map on this.
func (c *Circuit) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(c.NumQubits)
	for _, g := range c.Gates {
		h.Write([]byte(g.Name))
		writeInt(len(g.Qubits))
		for _, q := range g.Qubits {
			writeInt(q)
		}
		writeInt(len(g.Params))
		for _, p := range g.Params {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
