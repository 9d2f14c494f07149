package circuit

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// plainCircuit is Circuit without its JSON methods: what encoding/json makes
// of the struct tags by reflection, the reference the hand-written codec is
// held to.
type plainCircuit Circuit

// randomWireCircuit draws circuits that reach every branch of the encoder: names
// that need escaping, absent/null/empty operand lists, floats of every
// magnitude, and gate names the IR does not know.
func randomWireCircuit(rng *rand.Rand) *Circuit {
	names := []string{"", "ghz-3", "vqe<1>&co", "tab\there", "é", "q\"x"}
	ops := []string{OpH, OpRX, OpCZ, OpU3, OpPRX, OpBarrier, "mystery"}
	floats := []float64{0, -0.0, 1e-7, 2.5e-12, 1e21, -3.75, math.Pi, 1e300, 123456.789}
	c := &Circuit{Name: names[rng.Intn(len(names))], NumQubits: rng.Intn(21) - 1}
	if rng.Intn(6) == 0 {
		return c // nil gates
	}
	c.Gates = []Gate{}
	for i := rng.Intn(12); i > 0; i-- {
		g := Gate{Name: ops[rng.Intn(len(ops))]}
		switch rng.Intn(4) {
		case 0: // nil qubits
		case 1:
			g.Qubits = []int{}
		default:
			for k := rng.Intn(4); k >= 0; k-- {
				g.Qubits = append(g.Qubits, rng.Intn(40)-2)
			}
		}
		switch rng.Intn(3) {
		case 0:
		case 1:
			g.Params = []float64{}
		default:
			for k := rng.Intn(3); k >= 0; k-- {
				f := floats[rng.Intn(len(floats))]
				if rng.Intn(2) == 0 {
					f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
				}
				g.Params = append(g.Params, f)
			}
		}
		c.Gates = append(c.Gates, g)
	}
	return c
}

func TestCircuitJSONMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		c := randomWireCircuit(rng)
		got, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal((*plainCircuit)(c))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("circuit %d encodes\n%s\nencoding/json writes\n%s", i, got, want)
		}
		var back Circuit
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("circuit %d: decoding its own JSON: %v\n%s", i, err, got)
		}
		var ref plainCircuit
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		if !sameCircuit(&back, (*Circuit)(&ref)) {
			t.Fatalf("circuit %d decodes to %+v, encoding/json to %+v", i, back, ref)
		}
	}
	bad := &Circuit{NumQubits: 1, Gates: []Gate{{Name: OpRX, Qubits: []int{0}, Params: []float64{math.NaN()}}}}
	if _, err := json.Marshal(bad); err == nil {
		t.Error("a NaN parameter encoded; encoding/json refuses it")
	}
}

// sameCircuit compares what the wire carries: name, register and gates,
// with nil and empty operand lists told apart as encoding/json tells them.
func sameCircuit(a, b *Circuit) bool {
	return a.Name == b.Name && a.NumQubits == b.NumQubits && reflect.DeepEqual(a.Gates, b.Gates)
}

// repeatsKey reports whether some object in data names a key twice (under
// encoding/json's case folding). encoding/json merges a repeated object or
// array into the first; the hand-written decoder keeps the last one whole.
func repeatsKey(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var stack [][]string // keys seen per open object; nil for an array
	key := false         // the next string token is a key
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if s, ok := tok.(string); ok && key {
			for _, k := range stack[len(stack)-1] {
				if strings.EqualFold(k, s) {
					return true
				}
			}
			stack[len(stack)-1] = append(stack[len(stack)-1], s)
			key = false
			continue
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, []string{})
		case json.Delim('['):
			stack = append(stack, nil)
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		key = len(stack) > 0 && stack[len(stack)-1] != nil
	}
}

// FuzzCircuitDecode holds the hand-written decoder to encoding/json on any
// input: both refuse it, or both accept it and agree on every field.
func FuzzCircuitDecode(f *testing.F) {
	for _, s := range []string{
		`{"name":"ghz-3","num_qubits":3,"gates":[{"name":"h","qubits":[0]},{"name":"cx","qubits":[0,1]}]}`,
		`{"num_qubits":1,"gates":[{"name":"rx","qubits":[0],"params":[1.5707963267948966]}]}`,
		`{"num_qubits":2,"gates":null}`, `{"num_qubits":2,"gates":[]}`, `{"gates":[null,{"qubits":null,"params":[]}]}`,
		`{"NUM_QUBITS":2,"Gates":[{"NAME":"cz","Qubits":[0,1]}]}`, `{"num_qubits":2.5}`, `{"num_qubits":"2"}`,
		`{"gates":[{"name":"rx","params":[1e400]}]}`, `{"gates":{}}`, `{"gates":[5]}`, `{"gates":[{"qubits":[0,]}]}`,
		`{"name":"café","extra":{"deep":[1,2,{"x":null}]},"num_qubits":1}`, `{"name":"\ud800"}`,
		`null`, `[]`, `{"num_qubits":1} {}`, `{"num_qubits":1`, `{"gates":[{"qubits":[1],"qubits":[2,3]}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if repeatsKey(data) {
			return
		}
		var got Circuit
		gerr := got.UnmarshalJSON(data)
		var want plainCircuit
		werr := json.Unmarshal(data, &want)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("%q: decoder err %v, encoding/json err %v", data, gerr, werr)
		}
		if werr == nil && !sameCircuit(&got, (*Circuit)(&want)) {
			t.Fatalf("%q: decoder %+v, encoding/json %+v", data, got, want)
		}
	})
}

func TestCountsJSONMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []Counts{nil, {}, {0: 1}, {2: 1, 10: 2, 1: 3, 100: 4, 19: 5, 9: 6, 1048575: 7},
		{math.MaxInt64: 1, 1 << 40: 2, 0: 3}}
	for i := 0; i < 500; i++ {
		h := Counts{}
		width := 1 + rng.Intn(20)
		for k := rng.Intn(200); k > 0; k-- {
			h[rng.Intn(1<<width)] += 1 + rng.Intn(50)
		}
		cases = append(cases, h)
	}
	for _, h := range cases {
		got, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(map[int]int(h))
		if !bytes.Equal(got, want) {
			t.Fatalf("counts encode\n%s\nencoding/json writes\n%s", got, want)
		}
	}
}

// TestCountsMatchStringKeyedJSON holds the counts writer to what
// encoding/json writes for the same histogram keyed by decimal strings: the
// keys' byte order, whatever their digit counts, and null for a nil map.
func TestCountsMatchStringKeyedJSON(t *testing.T) {
	keys := []int{0, 1, 2, 10, 100, 1 << 20, 1<<31 - 1}
	cases := []Counts{nil, {}}
	for i := range keys {
		h := Counts{}
		for j, k := range keys[:i+1] {
			h[k] = j + 1
		}
		cases = append(cases, h)
	}
	// Past 10^10, a count too wide to pack beside its key, and a key too
	// wide for any count.
	cases = append(cases, Counts{1 << 40: 1, 10: 2, 1: 3}, Counts{1 << 31: 1 << 40, 3: 1}, Counts{math.MaxInt64: 5, 9: 1})
	for _, h := range cases {
		var m map[string]int
		if h != nil {
			m = map[string]int{}
			for k, n := range h {
				m[strconv.Itoa(k)] = n
			}
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("counts encode\n%s\nencoding/json writes\n%s", got, want)
		}
	}
}

// hybridLoopCircuit is the body a fresh-angle VQE iteration sends: 4 layers
// of rx on 5 qubits, then cz brickwork.
func hybridLoopCircuit(rng *rand.Rand) []byte {
	c := &Circuit{NumQubits: 5}
	for l := 0; l < 4; l++ {
		for q := 0; q < 5; q++ {
			c.Gates = append(c.Gates, Gate{Name: OpRX, Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}})
		}
		for q := l % 2; q+1 < 5; q += 2 {
			c.Gates = append(c.Gates, Gate{Name: OpCZ, Qubits: []int{q, q + 1}})
		}
	}
	data, _ := json.Marshal(c)
	return data
}

// TestCircuitDecodeAllocs gates the arena: a decoded circuit costs its
// gate list, one qubit array and one parameter array, however many gates it
// has (encoding/json paid three objects a gate).
func TestCircuitDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled objects at random under -race; CI runs this gate as its own non-race step")
	}
	data := hybridLoopCircuit(rand.New(rand.NewSource(3)))
	var c Circuit
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode of a %d-gate circuit: %.1f allocs", len(c.Gates), allocs)
	if allocs > 3 {
		t.Errorf("decode of a %d-gate circuit: %.1f allocs, ceiling 3", len(c.Gates), allocs)
	}
	buf := make([]byte, 0, 4096)
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := c.AppendJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("encode into a sized buffer: %.1f allocs, ceiling 0", allocs)
	}
	h := Counts{}
	for k := 0; k < 32; k++ {
		h[k*37] = k + 1
	}
	allocs = testing.AllocsPerRun(200, func() { h.AppendJSON(buf[:0]) })
	if allocs > 0 {
		t.Errorf("32-outcome histogram encode: %.1f allocs, ceiling 0", allocs)
	}
}
