package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/binwire"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/qdmi"
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
// record's own part and its share of the chunk's eight circuits and of the
// shared parts its records repeat: ~0.21 KB; ~0.33 KB with the whole binary
// record stored per job, ~0.9 KB when the record was JSON; with the circuit
// stored per job too, ~1.5 KB.
func TestRepeatedCircuitStoredOncePerChunk(t *testing.T) {
	const (
		jobs    = 2000
		maxMean = 260.0 // stored bytes per sealed job
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

// sealGHZJobs seals n sweep-burst-shaped jobs — GHZ(3..6) × 100 shots,
// submitted in bursts of 64, from user(i) — on one noisy 20-qubit device.
// It reports the bytes stored per job and the share of records whose shared
// part the arena found in their chunk.
func sealGHZJobs(t *testing.T, n int, user func(i int) string) (mean, found float64) {
	t.Helper()
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	qpu, err := device.New(device.Config{Name: "garnet-20", Rows: 4, Cols: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddDevice("garnet-20", qdmi.NewDevice(qpu, nil), 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i%64 == 0 {
			s.WaitSettled()
		}
		if _, err := s.Submit(qrm.Request{Circuit: circuit.GHZ(3 + i%4), Shots: 100, User: user(i)}, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitSettled()
	r := s.Retained()
	sealed, shared := s.sharedFound()
	if r.Sealed != n || sealed != n {
		t.Fatalf("sealed %d jobs (%d in the index), want %d", r.Sealed, sealed, n)
	}
	return float64(r.RecordBytes) / float64(n), float64(shared) / float64(n)
}

// TestRepeatedHeadStoredOncePerChunk: sweep-burst traffic, GHZ(3..6) from 8
// users, repeats 32 shared parts — a user's jobs of one circuit are placed,
// compiled and timed alike — so a job stores its own part alone: its
// counts, its two clock readings, an empty idempotency key and the
// back-reference, ~100 B. Stored per job, the whole record took 213 B.
func TestRepeatedHeadStoredOncePerChunk(t *testing.T) {
	const (
		jobs     = 4000
		maxMean  = 130.0 // stored bytes per sealed job
		minShare = 0.95  // of records whose shared part is found in their chunk
	)
	mean, found := sealGHZJobs(t, jobs, func(i int) string { return fmt.Sprintf("u%d", i/4%8) })
	t.Logf("stored %.0f B per sealed job; %.1f %% of the records found their shared part in their chunk", mean, 100*found)
	if mean > maxMean {
		t.Errorf("stored %.0f B per sealed job, want <= %.0f: a repeated shared part is stored per job", mean, maxMean)
	}
	if found < minShare {
		t.Errorf("%.1f %% of the records found their shared part in their chunk, want >= %.0f %%", 100*found, 100*minShare)
	}
}

// TestUnsharedRecordsCostTheirBackReference: when nothing repeats — every
// job from a user of its own — each record stores its shared part, and
// pays for the layout the length that leads it and the back-reference, a
// few bytes. The same jobs stored 220.2 B each as version-1 records, the
// whole record per job; the bound allows 6 B more.
func TestUnsharedRecordsCostTheirBackReference(t *testing.T) {
	const (
		v1Mean  = 220.2 // stored bytes per job of these jobs as version-1 records
		maxMean = v1Mean + 6
	)
	mean, found := sealGHZJobs(t, 2000, func(i int) string { return fmt.Sprintf("user-%04d", i) })
	t.Logf("stored %.1f B per sealed job; %.1f %% of the records found their shared part in their chunk", mean, 100*found)
	if mean > maxMean {
		t.Errorf("stored %.1f B per sealed job, want <= %.0f: a record that shares nothing costs more than its back-reference", mean, maxMean)
	}
	if found != 0 {
		t.Errorf("%.1f %% of the records found their shared part in their chunk; no two jobs share a user", 100*found)
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
// names no field; and its shared part, which the loop's fresh angles do not
// change, is stored once per chunk for its user and device. A job is stored
// in ~0.42 KB; ~0.54 KB with the whole record stored per job, ~0.96 KB with
// the record as JSON and the circuit binary, ~2.1 KB with both JSON.
func TestHybridRecordsStoredCompact(t *testing.T) {
	const maxMean = 470.0 // stored bytes per sealed job
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
// Job.AppendJSON wrote of it live, and every stored span, and the shared
// part each record reads, lies inside its own chunk. Halfway, every circuit
// and every record's shared part is sent to one slot of its table
// (OneCircuitSlot), so two circuits of one length share a slot and only the
// byte compare tells them apart; from there, every fourth job's request
// differs from the one before it in exactly one field of the record's shared
// part, so the shared parts that collide differ in one field too.
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
	// Each of these requests differs from the one before it (the last from
	// the first) in one field the record's shared part holds: the pin, the
	// user, the priority, the deadline, the shots.
	type variant struct {
		user           string
		shots, prio    int
		deadline       float64
		pinned, static bool
	}
	variants := []variant{
		{user: "u", shots: 20},
		{user: "u", shots: 20, pinned: true},
		{user: "v", shots: 20, pinned: true},
		{user: "v", shots: 20, prio: 1, pinned: true},
		{user: "v", shots: 20, prio: 1, deadline: 60_000, pinned: true},
		{user: "v", shots: 20, prio: 1, deadline: 60_000},
		{user: "v", shots: 21, prio: 1, deadline: 60_000},
		{user: "v", shots: 21, prio: 1, deadline: 60_000, static: true},
		{user: "v", shots: 21, prio: 1, static: true},
		{user: "v", shots: 21, static: true},
		{user: "u", shots: 21, static: true},
		{user: "u", shots: 21},
	}
	for i := 0; i < jobs; i++ {
		if i == jobs/2 {
			s.WaitSettled()
			s.OneCircuitSlot()
		}
		switch {
		case i%4 == 0:
			submit(wide(rng)) // unique
		case i%4 == 1:
			submit(repeated[rng.Intn(len(repeated))])
		case i%4 == 3 && i >= jobs/2:
			v := variants[(i/4)%len(variants)]
			r := qrm.Request{Circuit: left, Shots: v.shots, User: v.user, Priority: v.prio, DeadlineMs: v.deadline, StaticPlacement: v.static}
			var opts SubmitOptions
			if v.pinned {
				opts.Device = "a"
			}
			if _, err := s.Submit(r, opts); err != nil {
				t.Fatal(err)
			}
		default:
			submit([]*circuit.Circuit{left, right}[rng.Intn(2)])
		}
	}
	s.WaitSettled()

	s.mu.Lock()
	chunks := len(s.arena.chunks)
	for _, e := range s.index {
		ch := s.arena.chunks[e.chunk]
		n := uint32(len(ch))
		if e.rec.off+e.rec.n > n || e.circ.off+e.circ.n > n {
			t.Errorf("job %d: record %+v, circuit %+v outside its %d-B chunk %d", e.id, e.rec, e.circ, n, e.chunk)
			continue
		}
		// The back-reference leads to a shared part before the own part,
		// in the same chunk.
		r := binwire.Reader{B: ch[e.rec.off : e.rec.off+e.rec.n]}
		if back := r.Uvarint(); r.Err != nil || back == 0 || back > uint64(e.rec.off) {
			t.Errorf("job %d: back-reference %d (%v) from offset %d of chunk %d", e.id, back, r.Err, e.rec.off, e.chunk)
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
		if wr := wantJob.Request; err != nil || h.ID != lv.ID || h.Shots != wr.Shots || h.User != wr.User || h.Priority != wr.Priority ||
			h.DeadlineMs != wr.DeadlineMs || h.StaticPlacement != wr.StaticPlacement || h.Pinned != wantJob.Pinned {
			t.Fatalf("Head: job %d reads %+v, %v; want the request %+v pinned to %q", lv.ID, h, err, wr, wantJob.Pinned)
		}
	}
}
