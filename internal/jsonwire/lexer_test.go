package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

var skipSeeds = []string{
	``, ` `, `null`, `nul`, `true`, `tru`, `false`, `0`, `-0`, `01`, `-`, `1.`, `1.5e`, `1e+9`, `-2.5E-3`,
	`""`, `"a\"b"`, `"é"`, `"\u12"`, `"\x"`, "\"\x01\"", `"unterminated`, `"é"`,
	`[]`, `[1,]`, `[,1]`, `[1 2]`, `[[[]]]`, `{}`, `{"a":1}`, `{"a" 1}`, `{"a":1,}`, `{a:1}`, `{"a":{"b":[1,{"c":null}]}}`,
	` {"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5} `, `{} x`, `[1]]`,
}

// FuzzSkipMatchesValid holds the lexer's grammar to encoding/json's: a
// document Skip consumes whole is exactly a document json.Valid accepts.
func FuzzSkipMatchesValid(f *testing.F) {
	for _, s := range skipSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var l Lexer
		l.Reset(data)
		l.Skip()
		got := l.Err() == nil && l.End() == nil
		if want := json.Valid(data); got != want {
			t.Fatalf("Skip+End accepts %q = %v, json.Valid = %v (err %v)", data, got, want, l.Err())
		}
	})
}

func TestScalarsFollowEncodingJSON(t *testing.T) {
	type fields struct {
		I int     `json:"i"`
		F float64 `json:"f"`
		S string  `json:"s"`
		B bool    `json:"b"`
	}
	decode := func(data string) (fields, error) {
		v := fields{I: 7, F: 7, S: "seven", B: true}
		var l Lexer
		l.Reset([]byte(data))
		if l.Begin('{') {
			for n := 0; l.More('}', n); n++ {
				switch key := l.Key(); {
				case Is(key, "i"):
					l.Int(&v.I)
				case Is(key, "f"):
					l.Float(&v.F)
				case Is(key, "s"):
					l.String(&v.S)
				case Is(key, "b"):
					l.Bool(&v.B)
				default:
					l.Skip()
				}
			}
		}
		if l.Err() == nil {
			return v, l.End()
		}
		return v, l.Err()
	}
	for _, doc := range []string{
		`{"i":1,"f":2.5,"s":"x","b":false}`, `{"i":null,"f":null,"s":null,"b":null}`,
		`{"I":3,"F":1e-7,"S":"<","B":false}`, `{"i":1.0}`, `{"i":1e2}`, `{"i":9223372036854775808}`,
		`{"i":-9223372036854775808}`, `{"f":1e400}`, `{"f":-0}`, `{"s":5}`, `{"b":"true"}`, `{"i":"1"}`,
		`{"x":[1,{"y":null}],"i":4}`, `{"i":1}x`, `{"s":"\ud800"}`, `{"s":"café"}`, `{"ſ":"long s folds to s"}`,
		`{"İ":3}`, `{"ı":3}`, `{"\u0130":3}`, `{"\u0131":3}`, `{"\u212a":3,"K":4}`,
		`null`, `[]`, `{"i":1,"i":2}`,
	} {
		got, gerr := decode(doc)
		want := fields{I: 7, F: 7, S: "seven", B: true}
		werr := json.Unmarshal([]byte(doc), &want)
		if (gerr != nil) != (werr != nil) {
			t.Errorf("%s: lexer err %v, encoding/json err %v", doc, gerr, werr)
			continue
		}
		if werr == nil && (got != want || math.Signbit(got.F) != math.Signbit(want.F)) {
			t.Errorf("%s: lexer %+v, encoding/json %+v", doc, got, want)
		}
	}
}

// TestKeyFoldingFollowsEncodingJSON: a one-rune key, read by the lexer,
// names a one-letter field for Is exactly when encoding/json sets that
// field, for every rune of the Basic Multilingual Plane past ASCII.
func TestKeyFoldingFollowsEncodingJSON(t *testing.T) {
	fields := make([]reflect.StructField, 26)
	for i := range fields {
		name := string(rune('a' + i))
		fields[i] = reflect.StructField{Name: strings.ToUpper(name), Type: reflect.TypeOf(0),
			Tag: reflect.StructTag(`json:"` + name + `"`)}
	}
	typ := reflect.StructOf(fields)
	for r := rune(utf8.RuneSelf); r < 0x10000; r++ {
		if !utf8.ValidRune(r) {
			continue // a surrogate half
		}
		doc := []byte(`{"` + string(r) + `":1}`)
		v := reflect.New(typ)
		if err := json.Unmarshal(doc, v.Interface()); err != nil {
			t.Fatalf("%q: %v", doc, err)
		}
		var l Lexer
		l.Reset(doc)
		l.Begin('{')
		l.More('}', 0)
		key := l.Key()
		if l.Err() != nil {
			t.Fatalf("%q: %v", doc, l.Err())
		}
		for i := range fields {
			want := v.Elem().Field(i).Int() == 1
			if got := Is(key, string(rune('a'+i))); got != want {
				t.Errorf("key %q names field %q: Is %v, encoding/json %v", r, 'a'+i, got, want)
			}
		}
	}
}

func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, -0.0, 1, -1.5, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 1e20, 1e21, 123456789012345678, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		got, err := AppendFloat(nil, f)
		want, _ := json.Marshal(f)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, %v; encoding/json %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) succeeded; encoding/json refuses it", f)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		raw := make([]byte, rng.Intn(12))
		for k := range raw {
			raw[k] = byte(rng.Intn(256))
		}
		if got, want := AppendString(nil, string(raw)), mustMarshal(string(raw)); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s; encoding/json %s", raw, got, want)
		}
	}
	for _, s := range []string{"", "ghz-3", "a\"b", `back\slash`, "<&>", "tab\t", "é", " ", "bad\xffutf8", "\x7f", "\b\f\r\n\x00\x1f", "1q 20→20, 2q 6→6 cz", "line\u2028para\u2029", "\xe2\x80", "😀"} {
		if got, want := AppendString(nil, s), mustMarshal(s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s; encoding/json %s", s, got, want)
		}
	}
}

func mustMarshal(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}
