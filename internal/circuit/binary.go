package circuit

// A circuit's binary form is how a node keeps the request circuit of a
// finished job (the fleet's sealed-record arena): a fresh-angle ansatz's
// angles take 8 bytes each instead of ~18 of JSON digits, and a gate's name
// one byte. It lives in memory only — the journal, the snapshot and the wire
// carry JSON — and it is read back through AppendJSON, so a circuit decoded
// from it writes the JSON bytes the original wrote, nil told apart from
// empty wherever AppendJSON tells them apart.
//
// The layout (varint is encoding/binary's zig-zag signed form, uvarint the
// unsigned one):
//
//	varint   num_qubits
//	uvarint  len(name), then the name's bytes
//	uvarint  len(gates)+1; 0 for nil gates
//	per gate:
//	  byte     1 + the name's index in binaryOps; 0 (any other name)
//	           then uvarint len(name) and the name's bytes
//	  uvarint  len(qubits)+1; 0 for nil qubits; then each qubit as a varint
//	  uvarint  len(params); then each param's float64 bits, little-endian
//
// An rx gate on a low qubit takes 12 bytes, a cz 5.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/binwire"
)

// binaryOps are the gate names the binary form writes as one byte. The
// index is the code: append a name, never reorder.
var binaryOps = [...]string{
	OpH, OpX, OpY, OpZ, OpS, OpSdag, OpT, OpTdag,
	OpRX, OpRY, OpRZ, OpPRX, OpU3,
	OpCZ, OpCNOT, OpSWAP, OpCRZ, OpCCX, OpBarrier,
}

// binaryOp is a name's byte in the binary form: 1 + its binaryOps index.
var binaryOp = func() map[string]byte {
	m := make(map[string]byte, len(binaryOps))
	for i, name := range binaryOps {
		m[name] = byte(i + 1)
	}
	return m
}()

// AppendBinary appends the circuit's binary form to b. Every circuit has
// one: a float is kept as its bits, NaN and ±Inf too.
func (c *Circuit) AppendBinary(b []byte) []byte {
	b = binary.AppendVarint(b, int64(c.NumQubits))
	b = binwire.AppendString(b, c.Name)
	if c.Gates == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(c.Gates))+1)
	for i := range c.Gates {
		g := &c.Gates[i]
		if op, ok := binaryOp[g.Name]; ok {
			b = append(b, op)
		} else {
			b = binwire.AppendString(append(b, 0), g.Name)
		}
		if g.Qubits == nil {
			b = append(b, 0)
		} else {
			b = binary.AppendUvarint(b, uint64(len(g.Qubits))+1)
			for _, q := range g.Qubits {
				b = binary.AppendVarint(b, int64(q))
			}
		}
		b = binary.AppendUvarint(b, uint64(len(g.Params)))
		for _, p := range g.Params {
			b = binwire.AppendFloat(b, p)
		}
	}
	return b
}

// UnmarshalBinary replaces c with the circuit whose binary form is data.
// The gate list and the operand arrays of c's last UnmarshalBinary are
// reused when they are large enough, so a gate of the circuit c held before
// may change; a repeated name is not copied again.
func (c *Circuit) UnmarshalBinary(data []byte) error {
	r := binwire.Reader{B: data}
	num := r.Int()
	name := r.Next(r.Uvarint())
	gates := r.Uvarint()
	s := scratchPool.Get().(*decodeScratch)
	defer s.release()
	s.gates, s.qubits, s.params = s.gates[:0], s.qubits[:0], s.params[:0]
	// Each gate takes 3 bytes at least, so a count past the input ends the
	// loop at the input's end, not at the count.
	for i := uint64(1); i < gates && r.Err == nil; i++ {
		g := gateRef{q0: len(s.qubits), p0: len(s.params)}
		switch op := r.Next(1); {
		case r.Err != nil:
		case op[0] == 0:
			g.name = string(r.Next(r.Uvarint()))
		case int(op[0]) <= len(binaryOps):
			g.name = binaryOps[op[0]-1]
		default:
			r.Fail(binwire.ErrMalformed)
		}
		if nq := r.Uvarint(); nq > 0 {
			g.hasQubits = true
			for k := uint64(1); k < nq && r.Err == nil; k++ {
				s.qubits = append(s.qubits, r.Int())
			}
		}
		np := r.Uvarint()
		for k := uint64(0); k < np && r.Err == nil; k++ {
			s.params = append(s.params, r.Float())
		}
		g.q1, g.p1, g.hasParams = len(s.qubits), len(s.params), np > 0
		s.gates = append(s.gates, g)
	}
	if r.Err == nil && len(r.B) > 0 {
		return fmt.Errorf("circuit: %w: %d bytes past its end", binwire.ErrMalformed, len(r.B))
	}
	if r.Err != nil {
		return fmt.Errorf("circuit: %w", r.Err)
	}
	c.NumQubits = num
	if string(name) != c.Name {
		c.Name = string(name)
	}
	if gates == 0 {
		c.Gates = nil
		return nil
	}
	s.build(c)
	return nil
}
