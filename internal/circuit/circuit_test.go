package circuit

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestBuilderChaining(t *testing.T) {
	c := New(3, "demo").H(0).CNOT(0, 1).CNOT(1, 2).RZ(2, math.Pi/4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 4 {
		t.Errorf("got %d gates, want 4", len(c.Gates))
	}
}

func TestGateValidation(t *testing.T) {
	cases := []struct {
		g    Gate
		desc string
	}{
		{Gate{Name: "bogus", Qubits: []int{0}}, "unknown gate"},
		{Gate{Name: OpH, Qubits: []int{0, 1}}, "wrong arity"},
		{Gate{Name: OpCZ, Qubits: []int{0}}, "missing qubit"},
		{Gate{Name: OpCZ, Qubits: []int{1, 1}}, "duplicate qubit"},
		{Gate{Name: OpH, Qubits: []int{5}}, "out of range"},
		{Gate{Name: OpRZ, Qubits: []int{0}}, "missing param"},
		{Gate{Name: OpH, Qubits: []int{0}, Params: []float64{1}}, "extra param"},
		{Gate{Name: OpBarrier, Qubits: []int{0, 99}}, "barrier out of range"},
		{Gate{Name: OpRX, Qubits: []int{0}, Params: []float64{math.NaN()}}, "NaN param"},
		{Gate{Name: OpPRX, Qubits: []int{0}, Params: []float64{1, math.Inf(-1)}}, "infinite param"},
	}
	for _, c := range cases {
		if err := c.g.Validate(3); err == nil {
			t.Errorf("%s: expected validation error for %+v", c.desc, c.g)
		}
	}
	for _, ok := range []Gate{
		{Name: OpPRX, Qubits: []int{2}, Params: []float64{1, 2}},
		{Name: OpBarrier, Qubits: []int{0, 2}},
		{Name: OpBarrier},
	} {
		if err := ok.Validate(3); err != nil {
			t.Errorf("valid gate rejected: %v", err)
		}
	}
}

func TestBuilderPanicsOnBadQubit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, "").H(5)
}

func TestAddGateReturnsError(t *testing.T) {
	c := New(2, "")
	if err := c.AddGate(Gate{Name: OpH, Qubits: []int{7}}); err == nil {
		t.Error("expected error")
	}
	if err := c.AddGate(Gate{Name: OpH, Qubits: []int{1}}); err != nil {
		t.Errorf("valid gate rejected: %v", err)
	}
}

func TestValidateRejectsEmptyRegister(t *testing.T) {
	c := &Circuit{NumQubits: 0}
	if err := c.Validate(); err == nil {
		t.Error("expected error for empty register")
	}
}

func TestDepth(t *testing.T) {
	// h(0) | cx(0,1) | cx(1,2) is depth 3; h(0)+h(1) pack into one layer.
	c := New(3, "")
	c.H(0).H(1).CNOT(0, 1).CNOT(1, 2)
	if d := c.Depth(); d != 3 {
		t.Errorf("depth = %d, want 3", d)
	}
	empty := New(2, "")
	if d := empty.Depth(); d != 0 {
		t.Errorf("empty depth = %d, want 0", d)
	}
}

func TestDepthWithBarrier(t *testing.T) {
	// Barrier forces h(1) into a later layer than h(0).
	c := New(2, "")
	c.H(0).Barrier().H(1)
	if d := c.Depth(); d != 2 {
		t.Errorf("depth with barrier = %d, want 2", d)
	}
}

func TestCounts(t *testing.T) {
	c := GHZ(5)
	if got := c.CountOp(OpCNOT); got != 4 {
		t.Errorf("CNOT count = %d, want 4", got)
	}
	if got := c.TwoQubitCount(); got != 4 {
		t.Errorf("two-qubit count = %d, want 4", got)
	}
	if c.IsNative() {
		t.Error("GHZ circuit uses H/CNOT, should not be native")
	}
	n := New(2, "").PRX(0, 1, 2).RZ(1, 0.5).CZ(0, 1)
	if !n.IsNative() {
		t.Error("PRX/RZ/CZ circuit should be native")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New(2, "orig").RX(0, 1.5)
	cl := c.Clone()
	cl.Gates[0].Params[0] = 99
	cl.Gates[0].Qubits[0] = 1
	if c.Gates[0].Params[0] != 1.5 || c.Gates[0].Qubits[0] != 0 {
		t.Error("clone shares backing arrays with original")
	}
}

// TestGateStorageIsPerGate: gates built into a circuit share two arenas, but
// each owns its span — growing one gate's slices cannot land in the next
// gate, across arena chunks too, and AddGate keeps no reference to the slices
// it was handed.
func TestGateStorageIsPerGate(t *testing.T) {
	c := New(3, "arena")
	for i := 0; i < 40; i++ { // 120 operands and 80 parameters: several chunks
		c.PRX(i%3, float64(i), 0.5).CZ(i%3, (i+1)%3)
	}
	src := Gate{Name: OpRZ, Qubits: []int{1}, Params: []float64{0.25}}
	if err := c.AddGate(src); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(c.Gates)
	src.Qubits[0], src.Params[0] = 2, 9
	for i, g := range c.Gates {
		_ = append(g.Qubits, 99)
		_ = append(g.Params, 99)
		if got := fmt.Sprint(c.Gates); got != want {
			t.Fatalf("appending to gate %d (or writing to AddGate's argument) changed the circuit:\n%s\nwas\n%s", i, got, want)
		}
	}
	cl := c.Clone()
	if got := fmt.Sprint(cl.Gates); got != want {
		t.Fatalf("clone differs:\n%s\nwant\n%s", got, want)
	}
	for _, g := range cl.Gates {
		_ = append(g.Qubits, 99)
		g.Qubits[0] = 2 - g.Qubits[0]
	}
	if got := fmt.Sprint(c.Gates); got != want {
		t.Errorf("writing to a clone changed its source:\n%s\nwas\n%s", got, want)
	}
}

func TestGateString(t *testing.T) {
	g := Gate{Name: OpPRX, Qubits: []int{3}, Params: []float64{1.5, 0.5}}
	s := g.String()
	if !strings.Contains(s, "prx") || !strings.Contains(s, "q[3]") {
		t.Errorf("gate string %q missing pieces", s)
	}
	cz := Gate{Name: OpCZ, Qubits: []int{0, 1}}
	if got := cz.String(); got != "cz q[0],q[1]" {
		t.Errorf("cz string = %q", got)
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := map[float64]float64{
		0:               0,
		math.Pi:         math.Pi,
		-math.Pi:        math.Pi,
		3 * math.Pi:     math.Pi,
		2 * math.Pi:     0,
		-math.Pi / 2:    -math.Pi / 2,
		5 * math.Pi / 2: math.Pi / 2,
	}
	for in, want := range cases {
		if got := normalizeAngle(in); math.Abs(got-want) > 1e-12 {
			t.Errorf("normalizeAngle(%g) = %g, want %g", in, got, want)
		}
	}
}

func TestSimulateGHZ(t *testing.T) {
	s, err := GHZ(4).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(0)-0.5) > 1e-10 {
		t.Errorf("P(0000) = %g", s.Probability(0))
	}
	if math.Abs(s.Probability(15)-0.5) > 1e-10 {
		t.Errorf("P(1111) = %g", s.Probability(15))
	}
}

func TestSimulateAllGateTypes(t *testing.T) {
	c := New(3, "all-gates")
	c.H(0).X(1).Y(2).Z(0).S(1).Sdag(1).T(2).Tdag(2)
	c.RX(0, 0.3).RY(1, 0.7).RZ(2, 1.1).PRX(0, 0.5, 0.2)
	c.CZ(0, 1).CNOT(1, 2).SWAP(0, 2).Barrier()
	s, err := c.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Norm()-1) > 1e-9 {
		t.Errorf("norm = %g", s.Norm())
	}
}

func TestApplyToSmallerState(t *testing.T) {
	c := GHZ(5)
	s, _ := GHZ(3).Simulate()
	if err := c.ApplyTo(s); err == nil {
		t.Error("expected error applying 5-qubit circuit to 3-qubit state")
	}
}

func TestEquivalentTo(t *testing.T) {
	a := New(2, "").H(0).CNOT(0, 1)
	// Same Bell state via H on qubit 0, CZ, H on qubit 1... build an
	// equivalent: h(0); h(1); cz(0,1); h(1) == h(0); cnot(0,1).
	b := New(2, "").H(0).H(1).CZ(0, 1).H(1)
	eq, err := a.EquivalentTo(b, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("CZ-conjugated circuit should equal CNOT circuit")
	}
	cDiff := New(2, "").H(0)
	eq, err = a.EquivalentTo(cDiff, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("different circuits reported equivalent")
	}
	d := New(3, "")
	if _, err := a.EquivalentTo(d, 1e-9); err == nil {
		t.Error("expected size-mismatch error")
	}
}

func TestUnitaryLookupErrors(t *testing.T) {
	if _, err := Unitary1(Gate{Name: OpCZ}); err == nil {
		t.Error("Unitary1(cz) should fail")
	}
	if _, err := Unitary2(Gate{Name: OpH}); err == nil {
		t.Error("Unitary2(h) should fail")
	}
}
