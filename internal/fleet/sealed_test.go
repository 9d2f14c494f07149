package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/qrm"
)

// wide is a wide-circuit job's circuit: 12 qubits, depth 4, ry+rz on every
// qubit then cz brickwork along the line.
func wide(rng *rand.Rand) *circuit.Circuit {
	c := &circuit.Circuit{NumQubits: 12}
	for l := 0; l < 4; l++ {
		for q := 0; q < 12; q++ {
			c.Gates = append(c.Gates,
				circuit.Gate{Name: "ry", Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}},
				circuit.Gate{Name: "rz", Qubits: []int{q}, Params: []float64{2 * math.Pi * rng.Float64()}})
		}
		for q := l % 2; q+1 < 12; q += 2 {
			c.Gates = append(c.Gates, circuit.Gate{Name: "cz", Qubits: []int{q, q + 1}})
		}
	}
	return c
}

// TestRepeatedCircuitStoredOncePerChunk: 2 000 jobs cycle eight 12-qubit
// depth-4 circuits, as wide-circuit traffic does. A circuit's binary form is
// ~1.2 KB, its JSON ~6.1 KB. Stored once per arena chunk, a job costs its
// stored record and its share of the chunk's eight circuits: ~0.3 KB in
// the binary record, ~0.9 KB when the record was JSON; stored per job,
// ~1.5 KB.
func TestRepeatedCircuitStoredOncePerChunk(t *testing.T) {
	const (
		jobs    = 2000
		maxMean = 450.0 // stored bytes per sealed job
	)
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", mkdev(t, "a", 4, 4, 3, 0), 2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	circs := make([]*circuit.Circuit, 8)
	for i := range circs {
		circs[i] = wide(rng)
	}
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit(qrm.Request{Circuit: circs[rng.Intn(len(circs))], Shots: 50, User: "w"}, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitSettled()
	r := s.Retained()
	if r.Sealed != jobs {
		t.Fatalf("sealed %d jobs, want %d", r.Sealed, jobs)
	}
	v, err := s.View(1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(r.RecordBytes) / float64(r.Sealed)
	t.Logf("stored %.0f B per sealed job; job 1's record is %d B, its circuit %d B",
		mean, len(v.Sealed.stored), len(v.Sealed.circuit))
	if mean > maxMean {
		t.Errorf("stored %.0f B per sealed job, want <= %.0f: a repeated circuit is stored per job", mean, maxMean)
	}
	if size := unsafe.Sizeof(entry{}); size > 56 {
		t.Errorf("an index entry is %d B, want <= 56", size)
	}
}

// TestListCopiesNoCircuit: a listing shows no request, so it copies each
// sealed record without its circuit. A page of 20 wide-circuit jobs (each
// circuit ~1.2 KB stored, ~6.1 KB of JSON) then fits in the bytes the arena
// stores them in, and each view reads the head and the result a full View
// reads.
func TestListCopiesNoCircuit(t *testing.T) {
	const jobs = 20
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	if err := s.AddDevice("a", mkdev(t, "a", 3, 4, 3, 0), 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit(qrm.Request{Circuit: wide(rng), Shots: 5, User: "w"}, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitSettled()
	var buf []byte
	views, more := s.ListViews("", nil, 0, jobs, false, &buf)
	if len(views) != jobs || more {
		t.Fatalf("listed %d jobs (more %v), want %d", len(views), more, jobs)
	}
	stored := s.Retained().RecordBytes
	t.Logf("a page of %d sealed 12-qubit jobs copied %d B; the arena stores them in %d B", jobs, len(buf), stored)
	if int64(len(buf)) > stored {
		t.Errorf("a page of %d jobs copied %d B, more than the %d B they are stored in: the listing renders their circuits", jobs, len(buf), stored)
	}
	for _, lv := range views {
		if r, err := lv.Sealed.AppendRequest(nil); err == nil {
			t.Fatalf("job %d: listed view has a request %.40s…", lv.ID, r)
		}
		full, err := s.View(lv.ID, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := lv.Sealed.Head()
		want, werr := full.Sealed.Head()
		if err != nil || werr != nil || h != want {
			t.Fatalf("job %d: listed head %+v (%v), full view's %+v (%v)", lv.ID, h, err, want, werr)
		}
		res, err := lv.Sealed.AppendResultFields(nil)
		wantRes, werr := full.Sealed.AppendResultFields(nil)
		if err != nil || werr != nil || len(res) == 0 || !bytes.Equal(res, wantRes) || lv.Sealed.Status != full.Sealed.Status {
			t.Fatalf("job %d: listed result or status differs from the full view's", lv.ID)
		}
	}
}

// TestHybridRecordsStoredCompact: a hybrid-loop job's circuit never
// repeats, so it is stored per job, in its binary form: twenty rx angles
// take 8 B each instead of ~18 B of JSON digits. The record beside it is
// binary too: its counts are varint pairs, its floats 8 B each, and it
// names no field. A job is stored in ~0.5 KB; ~0.96 KB with the record as
// JSON and the circuit binary, ~2.1 KB with both JSON.
func TestHybridRecordsStoredCompact(t *testing.T) {
	const maxMean = 580.0 // stored bytes per sealed job
	_, _, mean := sealHybridJobs(t, 2000)
	t.Logf("stored %.0f B per sealed hybrid-loop job", mean)
	if mean > maxMean {
		t.Errorf("stored %.0f B per sealed hybrid-loop job, want <= %.0f: the request circuit is stored as its JSON", mean, maxMean)
	}
}

// TestSealedJobWithoutCircuitReadsBack: a recovered terminal job whose
// request has no circuit (Restore takes what the journal held) is stored
// with an empty circuit span, decodes with no circuit and renders its
// request with "circuit":null.
func TestSealedJobWithoutCircuitReadsBack(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	j := &Job{ID: 4, Status: JobFailed, Request: qrm.Request{Shots: 3, User: "u"}, Error: "lost"}
	if _, err := s.Restore([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	v, err := s.View(4, true, nil)
	if err != nil || v.Live != nil {
		t.Fatalf("job 4: %+v, %v; want it sealed", v, err)
	}
	cp := *j
	cp.Recovered, cp.SubmitUnixMs = true, v.Sealed.SubmitUnixMs
	want, err := cp.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recordJSON(v.Sealed)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("job 4 reads %s (%v)\nwant %s", got, err, want)
	}
	req, err := v.Sealed.AppendRequest(nil)
	if wantReq, _ := cp.Request.AppendJSON(nil); err != nil || !bytes.Equal(req, wantReq) || !bytes.HasPrefix(req, []byte(`{"circuit":null,`)) {
		t.Fatalf("job 4's request renders %s (%v), want %s", req, err, wantReq)
	}
}

// recordingStore is a JobStore that keeps, for each job, what
// Job.AppendJSON wrote of the job as it turned terminal: the record a
// sealed view must read back.
type recordingStore struct {
	mu   sync.Mutex
	want map[int][]byte
}

func (m *recordingStore) JournalFleetJob(*Job) uint64 { return 0 }

func (m *recordingStore) JournalFleetUpdate(j *Job, _ []byte) uint64 {
	if j.Status.Terminal() {
		rec, err := j.AppendJSON(nil)
		if err != nil {
			panic(err)
		}
		m.mu.Lock()
		m.want[j.ID] = rec
		m.mu.Unlock()
	}
	return 0
}

func (m *recordingStore) WaitDurable(uint64) {}

// TestInternedRecordsReadBack seals repeated, unique and colliding circuits
// over more than two arena chunks and reads every job back every way the
// scheduler offers: View, ListViews, Peek and Job each give what
// Job.AppendJSON wrote of it live, and every stored span lies inside its own
// chunk. Halfway, every circuit is sent to one slot of the circuit table
// (OneCircuitSlot), so two circuits of one length share a slot and only the
// byte compare tells them apart.
func TestInternedRecordsReadBack(t *testing.T) {
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	st := &recordingStore{want: make(map[int][]byte)}
	s.AttachStore(st)
	if err := s.AddDevice("a", mkdev(t, "a", 4, 4, 5, 0), 2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	repeated := []*circuit.Circuit{wide(rng), wide(rng), circuit.GHZ(3)}
	// Two circuits of one byte length: a hash collision between them is
	// told apart only by their bytes.
	left := &circuit.Circuit{NumQubits: 2, Gates: []circuit.Gate{{Name: "h", Qubits: []int{0}}, {Name: "cx", Qubits: []int{0, 1}}}}
	right := &circuit.Circuit{NumQubits: 2, Gates: []circuit.Gate{{Name: "h", Qubits: []int{1}}, {Name: "cx", Qubits: []int{1, 0}}}}
	const jobs = 1400
	submit := func(c *circuit.Circuit) {
		if _, err := s.Submit(qrm.Request{Circuit: c, Shots: 20, User: "u"}, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < jobs; i++ {
		if i == jobs/2 {
			s.WaitSettled()
			s.OneCircuitSlot()
		}
		switch i % 4 {
		case 0:
			submit(wide(rng)) // unique
		case 1:
			submit(repeated[rng.Intn(len(repeated))])
		default:
			submit([]*circuit.Circuit{left, right}[rng.Intn(2)])
		}
	}
	s.WaitSettled()

	s.mu.Lock()
	chunks := len(s.arena.chunks)
	for _, e := range s.index {
		n := uint32(len(s.arena.chunks[e.chunk]))
		if e.rec.off+e.rec.n > n || e.circ.off+e.circ.n > n {
			t.Errorf("job %d: record %+v, circuit %+v outside its %d-B chunk %d", e.id, e.rec, e.circ, n, e.chunk)
		}
	}
	s.mu.Unlock()
	t.Logf("%d jobs in %d arena chunks", jobs, chunks)
	if chunks < 3 {
		t.Fatalf("the records filled %d arena chunks, want >= 3 (two rollovers)", chunks)
	}

	var buf []byte
	views, more := s.ListViews("", nil, 0, jobs, true, &buf)
	if len(views) != jobs || more {
		t.Fatalf("listed %d jobs (more %v), want %d", len(views), more, jobs)
	}
	for _, lv := range views {
		want := st.want[lv.ID]
		if got, err := recordJSON(lv.Sealed); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ListViews: job %d reads (%v)\n%s\nthe live job wrote\n%s", lv.ID, err, got, want)
		}
		v, err := s.View(lv.ID, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := recordJSON(v.Sealed); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("View: job %d reads (%v)\n%s\nthe live job wrote\n%s", lv.ID, err, got, want)
		}
		var wantJob Job
		if err := json.Unmarshal(want, &wantJob); err != nil {
			t.Fatal(err)
		}
		j, err := s.Job(lv.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := j.AppendJSON(nil); !bytes.Equal(got, want) || j.Status != wantJob.Status {
			t.Fatalf("Job: job %d decodes to\n%s\nthe live job wrote\n%s", lv.ID, got, want)
		}
		status, device, recovered, err := s.Peek(lv.ID)
		if err != nil || status != wantJob.Status || device != wantJob.Device || recovered != wantJob.Recovered {
			t.Fatalf("Peek: job %d reads %s on %q (recovered %v, %v), want %s on %q", lv.ID, status, device, recovered, err, wantJob.Status, wantJob.Device)
		}
		h, err := v.Sealed.Head()
		if err != nil || h.ID != lv.ID || h.Shots != 20 || h.User != "u" {
			t.Fatalf("Head: job %d reads %+v, %v", lv.ID, h, err)
		}
	}
}
