// Package jsonwire reads and writes the JSON of the hot wire types by hand:
// the circuit, the count histogram, the v2 submission and the v2 job record.
// Lexer is a pull lexer over one document held in memory (no reflection, no
// intermediate values, a string copied only when the caller keeps it), and
// the Append functions write the exact bytes encoding/json writes for the
// same value, so nothing downstream can tell the difference.
//
// Where a decoder built on Lexer could disagree with encoding/json, it
// follows encoding/json: null leaves a scalar unchanged, an object key
// matches a field exactly or else under Unicode simple case folding (the
// Kelvin sign matches k; the dotted İ and the dotless ı match no ASCII), a
// number with a fraction or an exponent is not an integer, and a string
// holding an escape or a non-ASCII byte is decoded by encoding/json itself.
// A skipped value is validated, so malformed input is an error no matter
// where the damage is.
package jsonwire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unsafe"
)

// maxDepth bounds the nesting Skip follows, as encoding/json does.
const maxDepth = 10000

// Lexer reads one JSON value from a byte slice. The first error sticks: every
// later read is a no-op that returns a zero value, so a decode loop needs to
// check Err only once, at the end.
type Lexer struct {
	data []byte
	pos  int
	err  error
}

// Reset points the lexer at data.
func (l *Lexer) Reset(data []byte) { l.data, l.pos, l.err = data, 0, nil }

// Err is the first error the lexer met, or nil.
func (l *Lexer) Err() error { return l.err }

// fail records err unless an earlier error is already recorded, and stops the
// lexer.
func (l *Lexer) fail(err error) {
	if l.err == nil {
		l.err = err
	}
	l.pos = len(l.data)
}

func (l *Lexer) failf(format string, args ...any) {
	if l.err == nil {
		l.fail(fmt.Errorf("json: offset %d: "+format, append([]any{l.pos}, args...)...))
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (l *Lexer) peek() byte {
	for l.pos < len(l.data) {
		switch c := l.data[l.pos]; c {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return c
		}
	}
	return 0
}

// kind names the value that starts with c, for type errors.
func kind(c byte) string {
	switch {
	case c == '{':
		return "an object"
	case c == '[':
		return "an array"
	case c == '"':
		return "a string"
	case c == 't' || c == 'f':
		return "a bool"
	case c == '-' || c >= '0' && c <= '9':
		return "a number"
	case c == 0:
		return "the end of input"
	}
	return fmt.Sprintf("%q", c)
}

// mismatch records that the value at hand is not what the caller wanted. A
// value that is not even JSON is reported as the syntax error it is.
func (l *Lexer) mismatch(want string) {
	c := l.peek()
	start := l.pos
	l.Skip()
	if l.err == nil {
		l.pos = start
		l.failf("want %s, got %s", want, kind(c))
	}
}

// literal consumes word (true, false, null) at the current position.
func (l *Lexer) literal(word string) bool {
	if l.err != nil {
		return false
	}
	if !bytes.HasPrefix(l.data[l.pos:], []byte(word)) {
		l.failf("invalid literal, want %s", word)
		return false
	}
	l.pos += len(word)
	return true
}

// End reports an error (and records it) unless only whitespace follows the
// value just read.
func (l *Lexer) End() error {
	if l.err == nil {
		if c := l.peek(); l.pos < len(l.data) {
			l.failf("invalid character %s after top-level value", kind(c))
		}
	}
	return l.err
}

// Null consumes a null and reports whether there was one.
func (l *Lexer) Null() bool {
	if l.err != nil || l.peek() != 'n' {
		return false
	}
	return l.literal("null")
}

// Begin consumes the opening delimiter ('{' or '[') of the value at hand. It
// returns false, with nothing to iterate, when the value is null (consumed)
// and records an error when it is anything else.
func (l *Lexer) Begin(open byte) bool {
	if l.err != nil {
		return false
	}
	switch c := l.peek(); {
	case c == open:
		l.pos++
		return true
	case c == 'n':
		l.literal("null")
	case open == '{':
		l.mismatch("an object")
	default:
		l.mismatch("an array")
	}
	return false
}

// More reports whether the object or array opened by Begin has an n-th
// member (counting from 0), consuming the separating comma, or consumes the
// closing delimiter and returns false:
//
//	for n := 0; l.More('}', n); n++ { key := l.Key(); ... }
func (l *Lexer) More(close byte, n int) bool {
	if l.err != nil {
		return false
	}
	c := l.peek()
	if c == close {
		l.pos++
		return false
	}
	if n > 0 {
		if c != ',' {
			l.failf("want ',' or %q, got %s", close, kind(c))
			return false
		}
		l.pos++
		c = l.peek()
	}
	if c == 0 {
		l.failf("unexpected end of input")
		return false
	}
	return true
}

// Key reads an object member's key and its colon. The bytes are valid until
// the next read.
func (l *Lexer) Key() []byte {
	if l.err != nil {
		return nil
	}
	if l.peek() != '"' {
		l.failf("want an object key, got %s", kind(l.peek()))
		return nil
	}
	key := l.str()
	if l.peek() != ':' {
		l.failf("want ':' after an object key")
		return nil
	}
	l.pos++
	return key
}

// Is reports whether key names the field name: exactly, or else under the
// case folding encoding/json matches field names with. That is Unicode
// simple folding rune by rune, which is bytes.EqualFold's relation
// (TestKeyFoldingFollowsEncodingJSON checks every rune of the Basic
// Multilingual Plane against encoding/json).
func Is(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// str consumes the string at the current position and returns its decoded
// bytes: a slice of the input when it holds no escape and no byte above
// ASCII, else what encoding/json decodes it to (which also judges the
// escapes).
func (l *Lexer) str() []byte {
	start := l.pos
	plain := true
	for l.pos++; l.pos < len(l.data); l.pos++ {
		switch c := l.data[l.pos]; {
		case c == '"':
			l.pos++
			if plain {
				return l.data[start+1 : l.pos-1]
			}
			var s string
			if err := json.Unmarshal(l.data[start:l.pos], &s); err != nil {
				l.fail(err)
				return nil
			}
			return []byte(s)
		case c == '\\':
			plain = false
			l.pos++ // the escaped byte cannot close the string
		case c < 0x20:
			l.failf("control character in string")
			return nil
		case c >= 0x80:
			plain = false
		}
	}
	l.failf("unterminated string")
	return nil
}

// number consumes the number at the current position and returns its bytes
// and whether it is an integer literal (no fraction, no exponent).
func (l *Lexer) number() ([]byte, bool) {
	d, start := l.data, l.pos
	i := start
	digits := func() bool {
		j := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		l.failf("invalid number")
		return nil, false
	}
	integer := true
	if i < len(d) && d[i] == '.' {
		integer = false
		i++
		if !digits() {
			l.failf("invalid number")
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integer = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			l.failf("invalid number")
			return nil, false
		}
	}
	l.pos = i
	return d[start:i], integer
}

// String stores the string at hand in *dst; null leaves *dst unchanged.
func (l *Lexer) String(dst *string) {
	if b, ok := l.StringBytes(); ok {
		*dst = string(b)
	}
}

// StringBytes returns the string at hand as bytes valid until the next read,
// or false for null (consumed) or an error.
func (l *Lexer) StringBytes() ([]byte, bool) {
	if l.err != nil || l.Null() {
		return nil, false
	}
	if l.peek() != '"' {
		l.mismatch("a string")
		return nil, false
	}
	b := l.str()
	return b, l.err == nil
}

// Int stores the integer at hand in *dst; null leaves *dst unchanged.
func (l *Lexer) Int(dst *int) {
	if l.err != nil || l.Null() {
		return
	}
	if c := l.peek(); c != '-' && (c < '0' || c > '9') {
		l.mismatch("an integer")
		return
	}
	start := l.pos
	b, integer := l.number()
	if l.err != nil {
		return
	}
	n, err := strconv.ParseInt(unsafe.String(&b[0], len(b)), 10, 0)
	if !integer || err != nil {
		l.pos = start
		l.failf("number %s is not an integer", b)
		return
	}
	*dst = int(n)
}

// Float stores the number at hand in *dst; null leaves *dst unchanged.
func (l *Lexer) Float(dst *float64) {
	if l.err != nil || l.Null() {
		return
	}
	if c := l.peek(); c != '-' && (c < '0' || c > '9') {
		l.mismatch("a number")
		return
	}
	start := l.pos
	b, _ := l.number()
	if l.err != nil {
		return
	}
	// The grammar is checked above, so the only failure left is range; the
	// unsafe string dies with the call (the error is rebuilt from a copy).
	f, err := strconv.ParseFloat(unsafe.String(&b[0], len(b)), 64)
	if err != nil {
		l.pos = start
		l.failf("number %s out of range", b)
		return
	}
	*dst = f
}

// Bool stores the boolean at hand in *dst; null leaves *dst unchanged.
func (l *Lexer) Bool(dst *bool) {
	if l.err != nil || l.Null() {
		return
	}
	switch l.peek() {
	case 't':
		if l.literal("true") {
			*dst = true
		}
	case 'f':
		if l.literal("false") {
			*dst = false
		}
	default:
		l.mismatch("a bool")
	}
}

// Skip consumes the value at hand, whatever it is, checking that it is JSON.
func (l *Lexer) Skip() { l.skip(0) }

func (l *Lexer) skip(depth int) {
	if l.err != nil {
		return
	}
	if depth > maxDepth {
		l.failf("exceeded max depth")
		return
	}
	switch c := l.peek(); {
	case c == '{':
		l.pos++
		for n := 0; l.More('}', n); n++ {
			l.Key()
			l.skip(depth + 1)
		}
	case c == '[':
		l.pos++
		for n := 0; l.More(']', n); n++ {
			l.skip(depth + 1)
		}
	case c == '"':
		l.str()
	case c == 't':
		l.literal("true")
	case c == 'f':
		l.literal("false")
	case c == 'n':
		l.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		l.number()
	default:
		l.failf("invalid character %s looking for a value", kind(c))
	}
}
