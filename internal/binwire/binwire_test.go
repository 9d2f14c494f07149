package binwire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestRoundTrip reads back what the writers wrote, and a read past the end
// is a fault that sticks.
func TestRoundTrip(t *testing.T) {
	b := AppendString(nil, `é"x`)
	b = AppendFloat(b, math.Copysign(0, -1))
	b = AppendBool(b, true)
	b = append(b, 3) // a count of 3 one-byte entries
	b = append(b, 1, 2, 3)
	r := Reader{B: b}
	if s, f, ok, n := r.Str(), r.Float(), r.Bool(), r.Count(1); s != `é"x` || !math.Signbit(f) || f != 0 || !ok || n != 3 || r.Err != nil {
		t.Fatalf("read %q %v %v %d (%v)", s, f, ok, n, r.Err)
	}
	r.Next(3)
	if r.Float(); !errors.Is(r.Err, ErrMalformed) {
		t.Fatalf("a read past the end: %v, want ErrMalformed", r.Err)
	}
	if v := r.Uvarint(); v != 0 || r.Err == nil {
		t.Fatalf("a read after a fault: %d, %v", v, r.Err)
	}
	r = Reader{B: append([]byte{}, 200, 1, 0)}
	if n := r.Count(1); n != 0 || r.Err == nil {
		t.Fatalf("a count of 200 over 1 byte: %d, %v; want a fault", n, r.Err)
	}
}

// TestVarintsMatchEncodingBinary: Uvarint and Int read what binary.Uvarint
// and binary.Varint read of the same bytes — the value and the bytes taken —
// and fault where those report a short input or an overflow.
func TestVarintsMatchEncodingBinary(t *testing.T) {
	inputs := [][]byte{nil, {0}, {1}, {0x7f}, {0x80}, {0x80, 0}, {0x80, 1}, {0xff, 0x7f},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1},    // the largest uint64
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2},    // a tenth byte over 1
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x81}, // an eleventh byte
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := binary.AppendUvarint(nil, rng.Uint64()>>rng.Intn(64))
		inputs = append(inputs, b, b[:rng.Intn(len(b))], append(b, 0x55))
		b = binary.AppendVarint(nil, rng.Int63()>>rng.Intn(63)*int64(1-2*rng.Intn(2)))
		inputs = append(inputs, b, b[:rng.Intn(len(b))])
	}
	for _, b := range inputs {
		r := Reader{B: b}
		got := r.Uvarint()
		if want, n := binary.Uvarint(b); n <= 0 && (got != 0 || r.Err == nil) || n > 0 && (got != want || len(r.B) != len(b)-n || r.Err != nil) {
			t.Errorf("Uvarint of %x: %d, %d bytes left, %v; binary.Uvarint reads %d of %d bytes", b, got, len(r.B), r.Err, want, n)
		}
		r = Reader{B: b}
		x := r.Int()
		if want, n := binary.Varint(b); n <= 0 && (x != 0 || r.Err == nil) || n > 0 && (int64(x) != want || len(r.B) != len(b)-n || r.Err != nil) {
			t.Errorf("Int of %x: %d, %d bytes left, %v; binary.Varint reads %d of %d bytes", b, x, len(r.B), r.Err, want, n)
		}
	}
}
