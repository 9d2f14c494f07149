// Package binwire holds the primitives of the binary forms a node keeps in
// memory — a circuit's (circuit.AppendBinary) and a sealed job's stored
// record (fleet): varints (encoding/binary's zig-zag signed form, and the
// unsigned one), strings as their uvarint length then their bytes, floats
// as their float64 bits little-endian, bools as one byte, and a Reader
// whose first fault sticks.
package binwire

import (
	"encoding/binary"
	"errors"
	"math"
	"unsafe"
)

// ErrMalformed is what a Reader reports of bytes the writers did not write.
var ErrMalformed = errors.New("malformed binary form")

// AppendString appends s, its uvarint length first.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendFloat appends f's float64 bits, little-endian: NaN, ±Inf and -0
// too.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader reads B from its start. The first fault, recorded with Fail,
// sticks in Err and drops what is left of B, so every read after it
// returns zero.
type Reader struct {
	B   []byte // the bytes not read yet
	Err error
}

// Fail records fault err, unless one is recorded already.
func (r *Reader) Fail(err error) {
	if r.Err == nil {
		r.Err = err
	}
	r.B = nil
}

// Uvarint reads an unsigned varint, as binary.Uvarint does: past ten bytes,
// or a tenth byte over 1, is an overflow and a fault. It is written as one
// loop, without a call, so that the compiler inlines it (and Int) into
// every reader: most lengths, counts and small ints take one byte. A fault
// leaves B empty, so a read after one returns 0.
func (r *Reader) Uvarint() (v uint64) {
	for i, c := range r.B {
		if i == binary.MaxVarintLen64-1 && c > 1 {
			break
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			r.B = r.B[i+1:]
			return v
		}
	}
	r.Fail(ErrMalformed)
	return 0
}

// Int reads a zig-zag varint (binary.AppendVarint's form). An int is 64
// bits on every platform the node is built for, so any such varint fits.
func (r *Reader) Int() int {
	u := r.Uvarint()
	return int(u>>1) ^ -int(u&1)
}

// Next is the next n bytes, capped at their length.
func (r *Reader) Next(n uint64) []byte {
	if r.Err != nil || n > uint64(len(r.B)) {
		r.Fail(ErrMalformed)
		return nil
	}
	p := r.B[:n:n]
	r.B = r.B[n:]
	return p
}

// Float reads a float64's bits.
func (r *Reader) Float() float64 {
	if p := r.Next(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// Bool reads a one-byte bool.
func (r *Reader) Bool() bool {
	p := r.Next(1)
	return p != nil && p[0] != 0
}

// Str reads a string that shares the reader's bytes: it is valid while
// they are not written.
func (r *Reader) Str() string {
	p := r.Next(r.Uvarint())
	if len(p) == 0 {
		return ""
	}
	return unsafe.String(&p[0], len(p))
}

// Count reads a length that comes before that many entries of at least min
// bytes each: one the bytes left cannot hold is a fault, so a caller sizing
// an allocation by it never allocates past the input.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if n > uint64(len(r.B)/min) {
		r.Fail(ErrMalformed)
		return 0
	}
	return int(n)
}
