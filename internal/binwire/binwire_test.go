package binwire

import (
	"errors"
	"math"
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
