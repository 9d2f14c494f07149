package mqss

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/jsonwire"
	"repro/internal/qrm"
)

// plainJob and plainSubmit are the wire types without their JSON methods:
// what encoding/json makes of the struct tags by reflection, the reference
// the hand-written codecs are held to.
type (
	plainJob    Job
	plainSubmit SubmitRequest
)

// fillRandom sets every settable field reachable from v to a random value,
// zero about a third of the time so omitempty is exercised both ways. A field
// added to Job later is filled too, so the encoder cannot silently miss it.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	if rng.Intn(3) == 0 && v.Kind() != reflect.Struct {
		v.Set(reflect.Zero(v.Type()))
		return
	}
	switch v.Kind() {
	case reflect.String:
		strs := []string{"done", "garnet-20", "u0", "<&>", "é", "a\"b", "j-17"}
		v.SetString(strs[rng.Intn(len(strs))])
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(rng.Intn(2000) - 100))
	case reflect.Float64:
		fs := []float64{0.5, 1e-9, 3e21, -2.25, 1234.5678, rng.Float64()}
		v.SetFloat(fs[rng.Intn(len(fs))])
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Slice:
		n := rng.Intn(5)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillRandom(rng, s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := rng.Intn(40); i > 0; i-- {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillRandom(rng, k)
			fillRandom(rng, e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillRandom(rng, p.Elem())
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fillRandom(rng, v.Field(i))
			}
		}
	}
}

func TestJobJSONMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		var j Job
		fillRandom(rng, reflect.ValueOf(&j).Elem())
		got, err := j.AppendJSON(nil)
		want, werr := json.Marshal((*plainJob)(&j))
		if (err != nil) != (werr != nil) {
			t.Fatalf("record %d: encoder err %v, encoding/json err %v", i, err, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d encodes\n%s\nencoding/json writes\n%s", i, got, want)
		}
	}
}

// TestJobJSONRoundTrip: a client decoding a record with encoding/json gets
// every field back, the result's members into the embedded fleet.Result, so
// writing the decoded job again gives the same bytes. A method the embedded
// struct gains (an UnmarshalJSON) is promoted onto Job and fails this.
func TestJobJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		var j Job
		fillRandom(rng, reflect.ValueOf(&j).Elem())
		data, err := j.AppendJSON(nil)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		var back Job
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("record %d: decode: %v\n%s", i, err, data)
		}
		again, err := back.AppendJSON(nil)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("record %d decodes and encodes again as (%v)\n%s\nwas\n%s", i, err, again, data)
		}
	}
}

func TestRequestJSONMatchesReflection(t *testing.T) {
	type plainRequest qrm.Request
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		var r qrm.Request
		fillRandom(rng, reflect.ValueOf(&r).Elem())
		got, err := json.Marshal(r)
		want, werr := json.Marshal((*plainRequest)(&r))
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("request %d encodes (%v)\n%s\nencoding/json writes (%v)\n%s", i, err, got, werr, want)
		}
	}
}

// hybridLoopBody is what a fresh-angle VQE iteration POSTs.
func hybridLoopBody(rng *rand.Rand) []byte {
	c := &circuit.Circuit{NumQubits: 5}
	for l := 0; l < 4; l++ {
		for q := 0; q < 5; q++ {
			c.Gates = append(c.Gates, circuit.Gate{Name: circuit.OpRX, Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}})
		}
		for q := l % 2; q+1 < 5; q += 2 {
			c.Gates = append(c.Gates, circuit.Gate{Name: circuit.OpCZ, Qubits: []int{q, q + 1}})
		}
	}
	data, _ := json.Marshal(SubmitRequest{Circuit: c, Shots: 100, User: "u0"})
	return data
}

// FuzzSubmitRequestDecode holds the submission decoder to encoding/json:
// both refuse an input, or both accept it and agree on every field.
func FuzzSubmitRequestDecode(f *testing.F) {
	f.Add(hybridLoopBody(rand.New(rand.NewSource(1))))
	for _, s := range []string{
		`{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":50}`,
		`{"circuit":null,"shots":1,"user":"alice","priority":3,"deadline_ms":2.5,"static_placement":true,"device":"alpha","policy":"least-loaded"}`,
		`{"prİority":3,"uſer":"long s","circuit":{"num_qubıts":2,"\u212aind":1}}`, `{"qub\u0131ts":1,"pr\u0130ority":3}`,
		`{"Shots":"5"}`, `{"shots":5.5}`, `{"static_placement":1}`, `{"user":null,"extra":[{},[]]}`, `null`, `[]`, `{"shots":1}x`, `{`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if repeatsKey(data) {
			return
		}
		var got SubmitRequest
		var l jsonwire.Lexer
		l.Reset(data)
		got.decodeJSON(&l)
		gerr := l.End()
		var want plainSubmit
		werr := json.Unmarshal(data, &want)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("%q: decoder err %v, encoding/json err %v", data, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(got, SubmitRequest(want)) {
			t.Fatalf("%q: decoder %+v, encoding/json %+v", data, got, want)
		}
	})
}

// repeatsKey reports whether some object in data names a key twice (under
// encoding/json's case folding): encoding/json merges a repeated circuit
// into the first, the hand-written decoder keeps the last one whole.
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

// TestSubmitBodyLikeDecoder: the handler reads a body the way json.Decoder
// did, so the first value counts and trailing bytes do not.
func TestSubmitBodyLikeDecoder(t *testing.T) {
	for _, body := range []string{"", "  \n", "null", `{"shots":1} trailing`, `{"shots":1}{"shots":2}`, `{"shots":`, `[1]`, `"x"`} {
		var got SubmitRequest
		gerr := decodeSubmission([]byte(body), &got)
		var want plainSubmit
		werr := json.NewDecoder(bytes.NewReader([]byte(body))).Decode(&want)
		if (gerr != nil) != (werr != nil) || werr == nil && !reflect.DeepEqual(got, SubmitRequest(want)) {
			t.Errorf("%q: handler decode %+v (%v), json.Decoder %+v (%v)", body, got, gerr, want, werr)
		}
	}
}

// TestSubmitBodyIsBounded: a body past maxSubmitBytes is a 400 and no job,
// even when the bytes past the bound trail a complete first value; a body
// of exactly the bound is accepted.
func TestSubmitBodyIsBounded(t *testing.T) {
	f, server := pacedStack(t, 51, 0, 1)
	head := `{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5}`
	for _, tc := range []struct{ size, status int }{
		{maxSubmitBytes, http.StatusAccepted},
		{maxSubmitBytes + 1, http.StatusBadRequest},
	} {
		body := head + strings.Repeat(" ", tc.size-len(head))
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathV2Jobs, strings.NewReader(body)))
		if rec.Code != tc.status {
			t.Errorf("%d-byte body: status %d, want %d\n%s", tc.size, rec.Code, tc.status, rec.Body)
		}
	}
	if jobs, _ := f.ListViews("", nil, 0, 10, true, nil); len(jobs) != 1 {
		t.Errorf("%d jobs submitted, want 1 (the body at the bound)", len(jobs))
	}
}

// TestSubmissionCodecAllocs gates both ends of a hybrid-loop POST: the body
// decodes into the request, its circuit's arena and the user string (five
// objects; BenchmarkSubmissionDecodeReflect counts 109 for encoding/json),
// and the terminal record writes into a pooled buffer without allocating.
func TestSubmissionCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled objects at random under -race; CI runs this gate as its own non-race step")
	}
	body := hybridLoopBody(rand.New(rand.NewSource(4)))
	var req SubmitRequest
	allocs := testing.AllocsPerRun(200, func() {
		req = SubmitRequest{}
		if err := decodeSubmission(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("hybrid-loop submission decode: %.1f allocs", allocs)
	if allocs > 5 {
		t.Errorf("hybrid-loop submission decode: %.1f allocs, ceiling 5", allocs)
	}

	job := &Job{ID: "j-1234", State: StateDone, Device: "garnet-20", User: "u0", Shots: 100,
		Score: 0.912, Result: fleet.Result{CompiledGates: 51, CZCount: 6, Layout: []int{7, 8, 12, 13, 17},
			CompileStats: "1q 20→20, 2q 6→6 cz, swaps 0", Counts: circuit.Counts{}, DurationUs: 812.5,
			SubmitTime: 1.25, EndTime: 1.2508}}
	for k := 0; k < 32; k++ {
		job.Counts[k<<7] = 3
	}
	w := &discardWriter{h: http.Header{}}
	allocs = testing.AllocsPerRun(200, func() { writeRecord(w, http.StatusOK, job) })
	t.Logf("done-record write: %.1f allocs", allocs)
	if allocs > 1 {
		t.Errorf("done-record write: %.1f allocs, ceiling 1 (the Content-Type header value)", allocs)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so an allocation
// count sees the handler's own cost only.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

func BenchmarkSubmissionDecode(b *testing.B) {
	body := hybridLoopBody(rand.New(rand.NewSource(5)))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req SubmitRequest
		if err := decodeSubmission(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubmissionDecodeReflect(b *testing.B) {
	body := hybridLoopBody(rand.New(rand.NewSource(5)))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	type plainCircuit struct {
		Name      string         `json:"name,omitempty"`
		NumQubits int            `json:"num_qubits"`
		Gates     []circuit.Gate `json:"gates"`
	}
	for i := 0; i < b.N; i++ {
		var req struct {
			Circuit *plainCircuit `json:"circuit"`
			Shots   int           `json:"shots"`
			User    string        `json:"user"`
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			b.Fatal(err)
		}
	}
}
