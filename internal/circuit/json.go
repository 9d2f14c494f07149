package circuit

// The circuit and the count histogram own their JSON. Every submission
// decodes a circuit and every result record encodes a histogram, so both skip
// reflection: a circuit decodes into one NewLike-style arena (the gate list,
// one qubit array, one parameter array), and both encode straight into the
// caller's buffer. The bytes are exactly what encoding/json writes for the
// same values, so journals and fixtures written before read the same.

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"repro/internal/jsonwire"
)

// opNames interns gate names, so a decoded gate shares its name with the
// constant instead of allocating a copy.
var opNames = func() map[string]string {
	m := make(map[string]string, len(opSpecs))
	for name := range opSpecs {
		m[name] = name
	}
	return m
}()

// MarshalJSON implements json.Marshaler.
func (c *Circuit) MarshalJSON() ([]byte, error) {
	return c.AppendJSON(nil)
}

// AppendJSON appends the circuit's JSON object to b: name (when set),
// num_qubits and gates, each gate as name, qubits and params (when any).
func (c *Circuit) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, '{')
	if c.Name != "" {
		b = append(b, `"name":`...)
		b = jsonwire.AppendString(b, c.Name)
		b = append(b, ',')
	}
	b = append(b, `"num_qubits":`...)
	b = strconv.AppendInt(b, int64(c.NumQubits), 10)
	b = append(b, `,"gates":`...)
	if c.Gates == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range c.Gates {
			g := &c.Gates[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = jsonwire.AppendString(b, g.Name)
			b = append(b, `,"qubits":`...)
			if g.Qubits == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for j, q := range g.Qubits {
					if j > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendInt(b, int64(q), 10)
				}
				b = append(b, ']')
			}
			if len(g.Params) > 0 {
				b = append(b, `,"params":[`...)
				for j, p := range g.Params {
					if j > 0 {
						b = append(b, ',')
					}
					var err error
					if b, err = jsonwire.AppendFloat(b, p); err != nil {
						return nil, fmt.Errorf("circuit: gate %d (%s): %w", i, g.Name, err)
					}
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// gateRef is one decoded gate before the arenas exist: its operands are
// ranges of the scratch arrays, and has* tells an array (even an empty one)
// from null or absence, which leave the slice nil as encoding/json does.
type gateRef struct {
	name                 string
	q0, q1, p0, p1       int
	hasQubits, hasParams bool
}

// decodeScratch holds one decode's gates and operands until their count is
// known; the circuit then gets arenas of exactly that size.
type decodeScratch struct {
	gates  []gateRef
	qubits []int
	params []float64
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// release returns the scratch to the pool unless one outsized circuit grew it.
func (s *decodeScratch) release() {
	if cap(s.gates) <= 1<<12 && cap(s.qubits) <= 1<<13 && cap(s.params) <= 1<<13 {
		scratchPool.Put(s)
	}
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *Circuit) UnmarshalJSON(data []byte) error {
	var l jsonwire.Lexer
	l.Reset(data)
	if !l.Null() {
		c.DecodeJSON(&l)
	}
	return l.End()
}

// DecodeJSON replaces c with the circuit object at the lexer's position; the
// gates and their operands land in three allocations. A key given twice keeps
// its last value whole (encoding/json would merge a repeated "gates" array
// into the first, element by element).
func (c *Circuit) DecodeJSON(l *jsonwire.Lexer) {
	*c = Circuit{}
	if !l.Begin('{') {
		return
	}
	s := scratchPool.Get().(*decodeScratch)
	defer s.release()
	gates := false // a "gates" array was read (null or absent leaves Gates nil)
	for n := 0; l.More('}', n); n++ {
		switch key := l.Key(); {
		case jsonwire.Is(key, "gates"):
			gates = s.decodeGates(l)
		case jsonwire.Is(key, "num_qubits"):
			l.Int(&c.NumQubits)
		case jsonwire.Is(key, "name"):
			l.String(&c.Name)
		default:
			l.Skip()
		}
	}
	if l.Err() != nil || !gates {
		return
	}
	s.build(c)
}

// build gives c the scratch's gates: a gate list and two operand arrays of
// exactly their size, or c's own when they have room (a decode into a
// zeroed circuit allocates all three). The arrays are kept as c's arenas,
// full, so an Append after the decode starts a chunk of its own.
func (s *decodeScratch) build(c *Circuit) {
	c.Gates = reuse(c.Gates, len(s.gates))
	c.qubits = append(reuse(c.qubits, len(s.qubits))[:0], s.qubits...)
	c.params = append(reuse(c.params, len(s.params))[:0], s.params...)
	for i, r := range s.gates {
		g := &c.Gates[i]
		*g = Gate{Name: r.name}
		if r.hasQubits {
			g.Qubits = c.qubits[r.q0:r.q1:r.q1]
		}
		if r.hasParams {
			g.Params = c.params[r.p0:r.p1:r.p1]
		}
	}
}

// reuse is s resliced to n when it has the room, else a new slice of n;
// never nil, so an empty gate list or operand range stays apart from null.
func reuse[T any](s []T, n int) []T {
	if s != nil && cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// decodeGates reads a gates array into the scratch, reporting false for null.
func (s *decodeScratch) decodeGates(l *jsonwire.Lexer) bool {
	s.gates, s.qubits, s.params = s.gates[:0], s.qubits[:0], s.params[:0]
	if !l.Begin('[') {
		return false
	}
	for n := 0; l.More(']', n); n++ {
		r := gateRef{q0: len(s.qubits), q1: len(s.qubits), p0: len(s.params), p1: len(s.params)}
		if l.Begin('{') {
			for m := 0; l.More('}', m); m++ {
				switch key := l.Key(); {
				case jsonwire.Is(key, "name"):
					if b, ok := l.StringBytes(); ok {
						if name, known := opNames[string(b)]; known {
							r.name = name
						} else {
							r.name = string(b)
						}
					}
				case jsonwire.Is(key, "qubits"):
					s.qubits = s.qubits[:r.q0]
					r.hasQubits = l.Begin('[')
					for k := 0; r.hasQubits && l.More(']', k); k++ {
						var q int
						l.Int(&q)
						s.qubits = append(s.qubits, q)
					}
					r.q1 = len(s.qubits)
				case jsonwire.Is(key, "params"):
					s.params = s.params[:r.p0]
					r.hasParams = l.Begin('[')
					for k := 0; r.hasParams && l.More(']', k); k++ {
						var p float64
						l.Float(&p)
						s.params = append(s.params, p)
					}
					r.p1 = len(s.params)
				default:
					l.Skip()
				}
			}
		}
		s.gates = append(s.gates, r)
	}
	return true
}

// Counts is a measured histogram: basis-state index -> occurrences.
type Counts map[int]int

// MarshalJSON implements json.Marshaler.
func (h Counts) MarshalJSON() ([]byte, error) {
	return h.AppendJSON(nil), nil
}

// AppendJSON appends the histogram as a JSON object keyed by the decimal
// outcome, keys in the byte order encoding/json sorts them in ("10" before
// "2"); a nil histogram is null.
func (h Counts) AppendJSON(b []byte) []byte {
	if h == nil {
		return append(b, "null"...)
	}
	b = append(b, '{')
	open := len(b)
	h.Range(func(outcome, n int) {
		if len(b) > open {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, '"'), int64(outcome), 10)
		b = strconv.AppendInt(append(b, `":`...), int64(n), 10)
	})
	return append(b, '}')
}

// Range calls f with each outcome and its count, in the order AppendJSON
// writes them: the byte order of the decimal keys.
func (h Counts) Range(f func(outcome, n int)) {
	// Decimal strings of non-negative integers sort like the integers
	// left-aligned to the widest key's digits, the shorter first on a tie
	// ("1" < "10"). Each entry packs into one word, high bits first: the
	// aligned key, its digit count, the count. A plain integer sort of the
	// words is then the string order of the keys.
	// Up to 128 outcomes, a 100-shot job's whole histogram, sort on the stack.
	var stack, countStack [128]uint64
	words, counts := stack[:0], countStack[:0]
	maxK, maxN, neg := 0, 0, false
	for k, n := range h {
		words, counts = append(words, uint64(k)), append(counts, uint64(n))
		maxK, maxN, neg = max(maxK, k), max(maxN, n), neg || k < 0 || n < 0
	}
	width := digits(uint64(maxK))
	nBits := bits.Len64(uint64(maxN))
	if neg || bits.Len64(pow10[width]-1)+5+nBits > 64 {
		h.rangeByString(f)
		return
	}
	for i, k := range words {
		d := digits(k)
		words[i] = (k*pow10[width-d]<<5|uint64(d))<<nBits | counts[i]
	}
	slices.Sort(words)
	for _, w := range words {
		key := w >> nBits
		d := int(key & 31)
		f(int(key>>5/pow10[width-d]), int(w&(1<<nBits-1)))
	}
}

// rangeByString is Range for a histogram whose entries do not pack into a
// word: it sorts the keys' decimal strings, as encoding/json does.
func (h Counts) rangeByString(f func(outcome, n int)) {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, strconv.Itoa(k))
	}
	slices.Sort(keys)
	for _, key := range keys {
		k, _ := strconv.Atoi(key)
		f(k, h[k])
	}
}

// pow10[i] is 10^i, up to the 19 digits of the widest uint64 key.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// digits returns the number of decimal digits of x.
func digits(x uint64) int {
	d := 1
	for d < 20 && x >= pow10[d] {
		d++
	}
	return d
}
