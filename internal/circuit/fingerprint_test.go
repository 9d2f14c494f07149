package circuit

import (
	"bytes"
	"math"
	"testing"
)

// fingerprint is a circuit's structural identity: its binary form with the
// display name cleared. A device epoch's compile map keys on these bytes
// (after a placement byte), so two circuits share a compile exactly when
// their fingerprints are equal.
func fingerprint(c *Circuit) []byte {
	unnamed := *c
	unnamed.Name = ""
	return unnamed.AppendBinary(nil)
}

func TestFingerprintStableAndNameBlind(t *testing.T) {
	a := GHZ(4)
	b := GHZ(4)
	b.Name = "renamed"
	if !bytes.Equal(fingerprint(a), fingerprint(b)) {
		t.Error("fingerprint should ignore the circuit name")
	}
	if !bytes.Equal(fingerprint(a), fingerprint(a)) {
		t.Error("fingerprint not deterministic")
	}
	if b.Name != "renamed" {
		t.Error("fingerprinting changed the circuit's name")
	}
}

func TestFingerprintDistinguishesStructure(t *testing.T) {
	base := GHZ(4)
	cases := map[string]*Circuit{
		"different size":   GHZ(5),
		"different gate":   New(4, "x").X(0).CNOT(0, 1).CNOT(1, 2).CNOT(2, 3),
		"different qubits": New(4, "x").H(1).CNOT(0, 1).CNOT(1, 2).CNOT(2, 3),
		"extra gate":       GHZ(4).Barrier(),
	}
	for name, c := range cases {
		if bytes.Equal(fingerprint(c), fingerprint(base)) {
			t.Errorf("%s: fingerprint collided with GHZ(4)", name)
		}
	}
	p1 := New(1, "p").RY(0, 0.5)
	p2 := New(1, "p").RY(0, 0.5000001)
	if bytes.Equal(fingerprint(p1), fingerprint(p2)) {
		t.Error("fingerprint should distinguish parameter values")
	}
	p3 := New(1, "p").RY(0, math.Float64frombits(math.Float64bits(0.5)^1))
	if bytes.Equal(fingerprint(p1), fingerprint(p3)) {
		t.Error("fingerprint should distinguish one parameter bit")
	}
}
