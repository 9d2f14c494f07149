package circuit

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// binaryRoundTrip is c's JSON and the JSON of c after a binary round trip,
// the second decoded into into (a reused receiver is how the fleet reads).
func binaryRoundTrip(t *testing.T, c, into *Circuit) (want, got []byte) {
	t.Helper()
	want, err := c.AppendJSON(nil)
	if err != nil {
		return nil, nil
	}
	if err := into.UnmarshalBinary(c.AppendBinary(nil)); err != nil {
		t.Fatalf("%s: decoding its binary form: %v", want, err)
	}
	got, err = into.AppendJSON(nil)
	if err != nil {
		t.Fatalf("%s: the decoded circuit does not encode: %v", want, err)
	}
	return want, got
}

// TestBinaryRoundTripKeepsJSON: every branch of the JSON encoder (escaped
// names, nil, empty and filled operand lists, floats of every magnitude,
// unknown gate names) writes the same bytes after a binary round trip, into
// a fresh circuit and into one reused across decodes of other sizes.
func TestBinaryRoundTripKeepsJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var reused Circuit
	for i := 0; i < 3000; i++ {
		c := randomWireCircuit(rng)
		for _, into := range []*Circuit{new(Circuit), &reused} {
			if want, got := binaryRoundTrip(t, c, into); !bytes.Equal(got, want) {
				t.Fatalf("circuit %d after a binary round trip writes\n%s\nbefore\n%s", i, got, want)
			}
		}
	}
}

// TestBinaryFormSize pins the layout's cost per gate: an rx 12 B and a cz
// 5 B, and a fresh-angle hybrid-loop ansatz about a fifth of its JSON.
func TestBinaryFormSize(t *testing.T) {
	rx := (&Circuit{NumQubits: 1, Gates: []Gate{}}).AppendBinary(nil)
	for _, tc := range []struct {
		g    Gate
		want int
	}{
		{Gate{Name: OpRX, Qubits: []int{0}, Params: []float64{2.0943951023931953}}, 12},
		{Gate{Name: OpCZ, Qubits: []int{3, 4}}, 5},
	} {
		b := (&Circuit{NumQubits: 1, Gates: []Gate{tc.g}}).AppendBinary(nil)
		if n := len(b) - len(rx); n != tc.want {
			t.Errorf("%s takes %d B, want %d", tc.g, n, tc.want)
		}
	}
	var c Circuit
	data := hybridLoopCircuit(rand.New(rand.NewSource(3)))
	if err := c.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	bin := c.AppendBinary(nil)
	t.Logf("hybrid-loop ansatz: %d B binary, %d B JSON", len(bin), len(data))
	if len(bin)*4 > len(data) {
		t.Errorf("hybrid-loop ansatz: %d B binary, want <= a quarter of its %d B of JSON", len(bin), len(data))
	}
}

// TestBinaryDecodeRefusesWhatWasNotWritten: a truncated form, a byte past
// its end, an op code past the table and an operand count past the input
// are errors, not a circuit or a panic.
func TestBinaryDecodeRefusesWhatWasNotWritten(t *testing.T) {
	whole := GHZ(3).AppendBinary(nil)
	bad := [][]byte{nil, {}, append(bytes.Clone(whole), 0)}
	for n := 1; n < len(whole); n++ {
		bad = append(bad, whole[:n])
	}
	bad = append(bad,
		[]byte{2, 0, 2, byte(len(binaryOps) + 1), 0, 0},  // op code past the table
		[]byte{2, 0, 2, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}, // qubit count past the input
		[]byte{2, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},       // gate count past the input
		[]byte{2, 0, 2, 9, 0, 3, 0, 0, 0, 0},             // three params, four bytes
	)
	for _, b := range bad {
		var c Circuit
		if err := c.UnmarshalBinary(b); err == nil {
			t.Errorf("%x decodes to %+v, want an error", b, c)
		}
	}
}

// TestBinaryDecodeAllocs: decoding into a reused circuit, as the fleet does
// for every sealed record it copies out, allocates nothing once the
// receiver's arrays have the room.
func TestBinaryDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled objects at random under -race; CI runs this gate as its own non-race step")
	}
	var src Circuit
	if err := src.UnmarshalJSON(hybridLoopCircuit(rand.New(rand.NewSource(3)))); err != nil {
		t.Fatal(err)
	}
	src.Name = "vqe"
	bin := src.AppendBinary(nil)
	var c Circuit
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.UnmarshalBinary(bin); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("decode into a reused circuit: %.1f allocs, ceiling 0", allocs)
	}
	buf := make([]byte, 0, 1024)
	if allocs = testing.AllocsPerRun(200, func() { src.AppendBinary(buf[:0]) }); allocs > 0 {
		t.Errorf("encode into a sized buffer: %.1f allocs, ceiling 0", allocs)
	}
}

// FuzzCircuitBinary holds the binary form to the JSON: any input the JSON
// decoder accepts and AppendJSON can write (valid circuit or not) writes
// the same bytes after a binary round trip. The same input read as a binary
// form decodes or errors without a panic, and what it decodes to survives a
// second round trip.
func FuzzCircuitBinary(f *testing.F) {
	for _, s := range []string{
		`{"name":"ghz-3","num_qubits":3,"gates":[{"name":"h","qubits":[0]},{"name":"cx","qubits":[0,1]}]}`,
		`{"num_qubits":1,"gates":[{"name":"rx","qubits":[0],"params":[-0.0]}]}`,
		`{"num_qubits":1,"gates":[{"name":"rz","qubits":[0],"params":[5e-324,2.2250738585072009e-308]}]}`,
		`{"num_qubits":1,"gates":[{"name":"u3","qubits":[0],"params":[1e308,-1e308,1.7976931348623157e308]}]}`,
		`{"name":"vqe<1>&co \"q\"\n","num_qubits":2,"gates":[]}`, `{"name":"café ∂ 😀","num_qubits":1}`,
		`{"num_qubits":2,"gates":null}`, `{"num_qubits":2,"gates":[]}`, `{"num_qubits":2}`,
		`{"gates":[{"name":"cz","qubits":null},{"name":"cz","qubits":[]},{"name":"cz"}]}`,
		`{"num_qubits":-7,"gates":[{"name":"cz","qubits":[-1,9223372036854775807]},{"name":"x","qubits":[-9223372036854775808]}]}`,
		`{"num_qubits":3,"gates":[{"name":"mystery","qubits":[0],"params":[1]},{"name":"","qubits":[1]},{"name":"RX","qubits":[2]}]}`,
		string(hybridLoopCircuit(rand.New(rand.NewSource(1)))),
	} {
		f.Add([]byte(s))
	}
	f.Add(GHZ(4).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Circuit
		if c.UnmarshalJSON(data) == nil {
			if want, got := binaryRoundTrip(t, &c, new(Circuit)); !bytes.Equal(got, want) {
				t.Fatalf("%q after a binary round trip writes\n%s\nbefore\n%s", data, got, want)
			}
		}
		var b Circuit
		if b.UnmarshalBinary(data) == nil {
			if want, got := binaryRoundTrip(t, &b, new(Circuit)); !bytes.Equal(got, want) {
				t.Fatalf("binary %x after a second round trip writes\n%s\nbefore\n%s", data, got, want)
			}
		}
	})
}

// TestBinaryKeepsFloatBits: a float is kept as its bits, so -0, a
// subnormal and the largest float come back exactly, and so do NaN and
// ±Inf, which have no JSON.
func TestBinaryKeepsFloatBits(t *testing.T) {
	floats := []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64, math.NaN(), math.Inf(-1)}
	src := &Circuit{NumQubits: 1, Gates: []Gate{{Name: OpU3, Qubits: []int{0}, Params: floats}}}
	var c Circuit
	if err := c.UnmarshalBinary(src.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	for i, p := range c.Gates[0].Params {
		if math.Float64bits(p) != math.Float64bits(floats[i]) {
			t.Errorf("param %d: %v comes back as %v", i, floats[i], p)
		}
	}
}
