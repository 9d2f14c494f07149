package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"unsafe"

	"repro/internal/jsonwire"
	"repro/internal/qrm"
)

// This file is how the scheduler keeps a job once it is terminal: as its
// record, the bytes Job.AppendJSON writes (the shape the WAL journals), in an
// append-only arena of large byte chunks, with a pointer-free index entry.
// A live job is a *Job in Scheduler.jobs; sealing it drops the decoded
// circuit, the counts, the result, the scores and the done channel, so the
// garbage collector never scans a finished job again: a retained job costs
// its record plus an index entry, and neither holds a pointer.
//
// A record is stored without its request circuit, and the circuit in its
// binary form (circuit.AppendBinary): a variational loop's fresh angles take
// 8 bytes each, not ~18 of JSON digits. Traffic also repeats circuits (a
// recalibration's characterisation set, a fixed ansatz), so each distinct
// circuit is stored once per arena chunk. That is the stored form, and only
// this file and the circuit codec know it. viewLocked, the one copy-out,
// renders the circuit back through circuit.AppendJSON and splices it in for
// a reader that shows the request, so it sees the record's bytes; a reader
// that does not (a listing, a POST's read-back) gets the stored form.

// recordAt locates a record's parts by offset into its bytes: the request
// object [req, reqEnd), whose fields after the circuit start at shots, and
// the result object [res, resEnd), res == 0 when the job has none.
type recordAt struct{ req, shots, reqEnd, res, resEnd uint32 }

// sealedStates are the statuses an index entry stores, by code; code 0 is a
// live job, found in Scheduler.jobs.
var sealedStates = [...]JobStatus{"", JobDone, JobFailed, JobCancelled}

func stateCode(st JobStatus) uint8 {
	for i, s := range sealedStates {
		if s == st {
			return uint8(i)
		}
	}
	panic("fleet: sealing a job in status " + string(st))
}

// circuitAt is where a record's request circuit starts: right after the
// request's opening key, which Request.AppendJSON writes first.
func (at recordAt) circuitAt() uint32 { return at.req + uint32(len(`{"circuit":`)) }

// shift moves at's offsets past the request circuit by d bytes: the record
// at describes with a circuit d bytes longer at the cut (d < 0: shorter).
func (at recordAt) shift(d int) recordAt {
	u := uint32(d)
	at.shots, at.reqEnd = at.shots+u, at.reqEnd+u
	if at.res != 0 {
		at.res, at.resEnd = at.res+u, at.resEnd+u
	}
	return at
}

// span is a run of bytes in one arena chunk.
type span struct{ off, n uint32 }

// entry is one job of the index, in ID order. It holds no pointer.
type entry struct {
	id       int
	ackLSN   uint64
	submitMs int64
	chunk    uint32 // arena chunk of the stored record and its circuit
	rec      span   // the record without its request circuit
	circ     span   // the request circuit's binary form, shared by the chunk's records that repeat it; empty for none
	// The record's request and result offsets (recordAt) in rec, the
	// record without its circuit: the others follow from them.
	req, reqEnd, resEnd uint32
	user                uint32 // the job's user, by its Scheduler.users number
	state               uint8  // sealedStates code; 0 while live
}

// storedAt is where the parts of e's stored record lie: the request's fields
// after its circuit start at the cut, and a result follows the request's end.
func (e *entry) storedAt() recordAt {
	at := recordAt{req: e.req, reqEnd: e.reqEnd, resEnd: e.resEnd}
	at.shots = at.circuitAt()
	if e.resEnd != 0 {
		at.res = e.reqEnd + uint32(len(`,"result":`))
	}
	return at
}

// arenaChunk is the size of one arena allocation; a record longer than it
// gets a chunk of its own. It holds ~550 hybrid-loop records (~0.95 KB
// stored each), about half the circuit table's slots, as a 1-MiB chunk
// did when a circuit was stored as its JSON.
const arenaChunk = 1 << 19

// circuitSlots is the size of the arena's circuit table, and circuitProbes
// how many slots from a circuit's home a lookup tries. A chunk holds about
// a thousand records at most, and a workload that repeats circuits repeats a
// few of them; the probes keep two of those whose hashes share a home slot
// from evicting each other, storing each again per job.
const (
	circuitSlots  = 1024
	circuitProbes = 4
)

// arena is append-only: a record's bytes never change once written. Its
// chunks come from mapChunk, outside the garbage-collected heap where the
// platform allows it (arena_mmap.go), so the records neither count toward
// the collector's heap goal nor are marked. No slice of a chunk leaves
// Scheduler.mu: a reader copies a record out under the lock, so the chunks
// can be unmapped once the scheduler is unreachable.
//
// A chunk is self-contained: the circuits its records share are in it, so
// dropping a whole chunk drops nothing another chunk reads.
type arena struct {
	chunks [][]byte
	bytes  int64 // stored bytes: records without their circuits, and the circuits' binary forms

	// circuits maps a circuit's hash to its binary form in the last chunk;
	// a zero span is an empty slot. It is cleared when a chunk starts, and a
	// slot is taken as a match only when its bytes equal the circuit's.
	circuits [circuitSlots]span
	seed     maphash.Seed
	mask     uint64 // a hash's home slot is hash & mask
}

// newArena is an empty arena whose chunks are unmapped when it becomes
// unreachable. The finalizer sits on the arena, not the Scheduler: the
// scheduler's cond references its mutex, a cycle a finalizer never runs on.
func newArena() *arena {
	a := &arena{seed: maphash.MakeSeed(), mask: circuitSlots - 1}
	runtime.SetFinalizer(a, (*arena).free)
	return a
}

// add stores a record: c, its circuit's binary form, once in the last
// chunk, unless the chunk holds those bytes already, and rec, the record
// with the circuit cut out, after. It returns the chunk and the two spans.
func (a *arena) add(rec, c []byte) (chunk uint32, body, circ span) {
	last := len(a.chunks) - 1
	var slot *span
	found := false
	if last >= 0 {
		slot, found = a.lookup(a.chunks[last], c)
	}
	need := len(rec)
	if !found {
		need += len(c)
	}
	if last < 0 || len(a.chunks[last])+need > cap(a.chunks[last]) {
		a.chunks = append(a.chunks, mapChunk(max(arenaChunk, len(rec)+len(c))))
		last++
		a.circuits = [circuitSlots]span{}
		slot, found = a.lookup(nil, c)
	}
	ch := a.chunks[last]
	start := len(ch)
	if !found {
		*slot = span{uint32(len(ch)), uint32(len(c))}
		ch = append(ch, c...)
	}
	body = span{uint32(len(ch)), uint32(len(rec))}
	ch = append(ch, rec...)
	a.chunks[last] = ch
	a.bytes += int64(len(ch) - start)
	return uint32(last), body, *slot
}

// lookup finds circuit c among chunk ch's circuits. It probes from c's home
// slot and reports the slot holding c's bytes, found, or else the slot add
// fills: the first empty one, or c's home.
func (a *arena) lookup(ch, c []byte) (slot *span, found bool) {
	home := maphash.Bytes(a.seed, c)
	for i := uint64(0); i < circuitProbes; i++ {
		s := &a.circuits[(home+i)&a.mask]
		if s.n == 0 {
			return s, false
		}
		if bytes.Equal(ch[s.off:s.off+s.n], c) {
			return s, true
		}
	}
	return &a.circuits[home&a.mask], false
}

// free returns every chunk to the system. Nothing reads the arena after it.
func (a *arena) free() {
	for _, c := range a.chunks {
		unmapChunk(c)
	}
	a.chunks = nil
}

// Record is a sealed job: the record Job.AppendJSON wrote when the job turned
// terminal, copied out of the arena into a buffer of the caller's. Its bytes
// stay valid until the caller reuses that buffer.
type Record struct {
	JSON         []byte
	Status       JobStatus
	SubmitUnixMs int64
	at           recordAt
}

// Request is the record's request object; nil when the record was copied
// without it, its circuit cut out.
func (r Record) Request() []byte {
	if r.at.shots == r.at.circuitAt() {
		return nil
	}
	return r.JSON[r.at.req:r.at.reqEnd]
}

// ResultFields are the members of the record's result object, without its
// braces; nil when the job has no result.
func (r Record) ResultFields() []byte {
	if r.at.res == 0 {
		return nil
	}
	return r.JSON[r.at.res+1 : r.at.resEnd-1]
}

// Head is the scalar fields a job's v2 record shows, of a live job (Job.Head)
// or a sealed one (Record.Head, whose strings share the record's bytes).
type Head struct {
	ID              int
	Device          string
	Migrations      int
	Score           float64
	Pinned          string
	User            string
	Shots           int
	Priority        int
	DeadlineMs      float64
	StaticPlacement bool
	Error           string
	Recovered       bool
	Node            string
}

// Head is the job's scalar fields, as Record.Head reads them from its record.
func (j *Job) Head() Head {
	return Head{ID: j.ID, Device: j.Device, Migrations: j.Migrations, Score: j.Score, Pinned: j.Pinned,
		User: j.Request.User, Shots: j.Request.Shots, Priority: j.Request.Priority, DeadlineMs: j.Request.DeadlineMs,
		StaticPlacement: j.Request.StaticPlacement, Error: j.Error, Recovered: j.Recovered, Node: j.Node}
}

// Head lexes the record's scalar fields. It jumps over the circuit and the
// result: their offsets are known.
func (r Record) Head() (Head, error) {
	var h Head
	var l jsonwire.Lexer
	str := func(dst *string) {
		if b, ok := l.StringBytes(); ok && len(b) > 0 {
			*dst = unsafe.String(&b[0], len(b))
		}
	}
	// An error stops the lexer; a jump must not restart it.
	jump := func(to uint32) {
		if l.Err() == nil {
			l.Reset(r.JSON[to:])
		}
	}
	l.Reset(r.JSON)
	if !l.Begin('{') {
		return h, l.Err()
	}
	for n := 0; l.More('}', n); n++ {
		switch key := l.Key(); string(key) {
		case "id":
			l.Int(&h.ID)
		case "device":
			str(&h.Device)
		case "migrations":
			l.Int(&h.Migrations)
		case "score":
			l.Float(&h.Score)
		case "pinned":
			str(&h.Pinned)
		case "request":
			jump(r.at.shots)
			for n := 1; l.More('}', n); n++ {
				switch key := l.Key(); string(key) {
				case "shots":
					l.Int(&h.Shots)
				case "priority":
					l.Int(&h.Priority)
				case "user":
					str(&h.User)
				case "deadline_ms":
					l.Float(&h.DeadlineMs)
				case "static_placement":
					l.Bool(&h.StaticPlacement)
				default:
					l.Skip()
				}
			}
			jump(r.at.reqEnd)
		case "result":
			jump(r.at.resEnd)
		case "error":
			str(&h.Error)
		case "recovered":
			l.Bool(&h.Recovered)
		case "node":
			str(&h.Node)
		default:
			l.Skip()
		}
	}
	if err := l.Err(); err != nil {
		return h, fmt.Errorf("fleet: sealed record: %w", err)
	}
	return h, nil
}

// Job decodes the record into the job it was written from.
func (r Record) Job() (*Job, error) {
	j := new(Job)
	if err := json.Unmarshal(r.JSON, j); err != nil {
		return nil, fmt.Errorf("fleet: sealed record: %w", err)
	}
	j.SubmitUnixMs = r.SubmitUnixMs
	return j, nil
}

// View is one job as the scheduler holds it: Live, a private copy of a job
// that is not sealed yet, or else Sealed, a terminal job's record.
type View struct {
	ID     int
	Live   *Job
	Sealed Record
}

// findLocked is the index position of job id, or -1. IDs are minted in
// ascending order and Restore enters them sorted, so the index is sorted.
// Caller holds s.mu.
func (s *Scheduler) findLocked(id int) int {
	i := sort.Search(len(s.index), func(i int) bool { return s.index[i].id >= id })
	if i < len(s.index) && s.index[i].id == id {
		return i
	}
	return -1
}

// viewLocked is entry e's view; a live copy is taken as it is stored, a
// sealed record is appended to *buf (nil: a new buffer). Without its
// request, the record is copied as it is stored, circuit cut out: Head and
// ResultFields read that form, Request is nil and JSON is no JSON document.
// Caller holds s.mu.
func (s *Scheduler) viewLocked(e *entry, withRequest bool, buf *[]byte) View {
	if e.state == 0 {
		cp := *s.jobs[e.id]
		return View{ID: e.id, Live: &cp}
	}
	if buf == nil {
		buf = new([]byte)
	}
	start := len(*buf)
	at := e.storedAt()
	ch := s.arena.chunks[e.chunk]
	rec := ch[e.rec.off : e.rec.off+e.rec.n]
	if withRequest {
		cut := at.circuitAt()
		*buf = append(*buf, rec[:cut]...)
		n := len(*buf)
		*buf = s.appendCircuitLocked(*buf, ch[e.circ.off:e.circ.off+e.circ.n])
		at = at.shift(len(*buf) - n)
		rec = rec[cut:]
	}
	*buf = append(*buf, rec...)
	return View{ID: e.id, Sealed: Record{
		JSON:         (*buf)[start:len(*buf):len(*buf)],
		Status:       sealedStates[e.state],
		SubmitUnixMs: e.submitMs,
		at:           at,
	}}
}

// appendCircuitLocked appends the JSON Request.AppendJSON wrote for the
// circuit whose stored form is bin: null for an empty one (no circuit),
// else what circuit.AppendJSON writes of the circuit decoded into
// s.viewCircuit. Caller holds s.mu.
func (s *Scheduler) appendCircuitLocked(b, bin []byte) []byte {
	if len(bin) == 0 {
		return append(b, "null"...)
	}
	err := s.viewCircuit.UnmarshalBinary(bin)
	if err == nil {
		b, err = s.viewCircuit.AppendJSON(b)
	}
	if err != nil {
		panic(fmt.Sprintf("fleet: a stored circuit does not read back: %v", err))
	}
	return b
}

// headLocked lexes sealed entry e's head where it is stored, circuit cut
// out: Record.Head never reads the circuit. The strings share the arena.
// Caller holds s.mu.
func (s *Scheduler) headLocked(e *entry) (Head, error) {
	return Record{JSON: s.arena.chunks[e.chunk][e.rec.off : e.rec.off+e.rec.n], at: e.storedAt()}.Head()
}

// maxSpareRecord bounds the seal buffer kept for reuse: one outsized record
// does not pin its buffer for the life of the process.
const maxSpareRecord = 64 << 10

// sealLocked turns terminal job j into its stored form — its record with
// the request circuit cut out, and the circuit's binary form — copied into
// the arena. res is j.Result as finalizeLocked rendered it into s.sealBuf, and
// the record is written after it there, around the same bytes; nil renders
// j.Result, if any, here (a job Restore hands in terminal). j leaves s.jobs,
// so nothing of the scheduler references it any more, and j itself is not
// written, so a waiter still holding it reads it as it settled. Every float
// of a job was checked finite at submission or computed by the engine, so a
// record that cannot be written is a bug. Caller holds s.mu.
func (s *Scheduler) sealLocked(j *Job, res []byte) {
	buf := s.sealBuf[:0]
	if res != nil {
		buf = res
	}
	b, at, err := j.writeRecord(buf, false, res)
	if err != nil {
		panic(fmt.Sprintf("fleet: job %d: %v", j.ID, err))
	}
	// writeRecord wrote the circuit null: cut it out.
	cut := at.circuitAt()
	b = append(b[:len(buf)+int(cut)], b[len(buf)+int(at.shots):]...)
	at = at.shift(int(cut) - int(at.shots))
	n := len(b)
	if c := j.Request.Circuit; c != nil {
		b = c.AppendBinary(b)
	}
	if cap(b) <= maxSpareRecord {
		s.sealBuf = b[:0]
	} else {
		s.sealBuf = nil
	}
	e := &s.index[s.findLocked(j.ID)]
	e.chunk, e.rec, e.circ = s.arena.add(b[len(buf):n], b[n:])
	e.req, e.reqEnd, e.resEnd = at.req, at.reqEnd, at.resEnd
	e.ackLSN, e.submitMs = j.ackLSN, j.SubmitUnixMs
	e.state = stateCode(j.Status)
	delete(s.jobs, j.ID)
	s.settled.Broadcast()
}

// sameRequestLocked reports whether req, pinned to device pinned, is the
// request job id was minted for, read where the job lives: a live job's
// Request and Pinned, a sealed one's stored circuit and head. Circuits
// compare by their binary form. The routing policy is not part of the job,
// so it is not compared. The scheduler wrote every stored record, so one
// that does not lex is a bug. Caller holds s.mu.
func (s *Scheduler) sameRequestLocked(id int, req *qrm.Request, pinned string) bool {
	b := req.Circuit.AppendBinary(s.sealBuf[:0])
	n := len(b)
	var bound []byte
	var h Head
	if j, ok := s.jobs[id]; ok {
		if c := j.Request.Circuit; c != nil {
			b = c.AppendBinary(b)
		}
		bound, h = b[n:], j.Head()
	} else {
		e := &s.index[s.findLocked(id)]
		bound = s.arena.chunks[e.chunk][e.circ.off : e.circ.off+e.circ.n]
		var err error
		if h, err = s.headLocked(e); err != nil {
			panic(fmt.Sprintf("fleet: job %d: a stored record does not read back: %v", id, err))
		}
	}
	if cap(b) <= maxSpareRecord {
		s.sealBuf = b[:0]
	}
	return bytes.Equal(b[:n], bound) && h.Shots == req.Shots && h.Priority == req.Priority &&
		h.DeadlineMs == req.DeadlineMs && h.StaticPlacement == req.StaticPlacement && h.Pinned == pinned
}

// View returns job id as the scheduler holds it, a live job relabelled as
// Job relabels it. A sealed job's record is copied into *buf from its start
// (nil: a new buffer), its request rendered only when withRequest is set
// (viewLocked), so it is the caller's: it stays valid until the caller
// reuses *buf.
func (s *Scheduler) View(id int, withRequest bool, buf *[]byte) (View, error) {
	if buf != nil {
		*buf = (*buf)[:0]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return View{ID: id, Live: refined(*j)}, nil
	}
	if i := s.findLocked(id); i >= 0 {
		return s.viewLocked(&s.index[i], withRequest, buf), nil
	}
	return View{}, fmt.Errorf("%w %d", ErrNoJob, id)
}

// Retention is what the scheduler holds: live jobs by stored status, sealed
// jobs, the bytes their records are stored in (the circuits in binary form,
// one repeated within an arena chunk counted once), and the
// Idempotency-Keys bound in the dedup window (at most idemWindow).
type Retention struct {
	Live        map[JobStatus]int
	Sealed      int
	RecordBytes int64
	IdemKeys    int
}

// Retained reports what the scheduler holds.
func (s *Scheduler) Retained() Retention {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := Retention{Live: make(map[JobStatus]int), Sealed: len(s.index) - len(s.jobs), RecordBytes: s.arena.bytes, IdemKeys: len(s.idem)}
	for _, j := range s.jobs {
		r.Live[j.Status]++
	}
	return r
}
