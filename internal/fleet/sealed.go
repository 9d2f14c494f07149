package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"sync"

	"repro/internal/binwire"
	"repro/internal/circuit"
	"repro/internal/qrm"
)

// This file is how the scheduler keeps a job once it is terminal: as its
// stored record, in an append-only arena of large byte chunks, with a
// pointer-free index entry. A live job is a *Job in Scheduler.jobs; sealing
// it drops the decoded circuit, the counts, the result, the scores and the
// done channel, so the garbage collector never scans a finished job again: a
// retained job costs its record plus an index entry, and neither holds a
// pointer.
//
// The stored record is binary, and only this file knows it. Its fields are
// internal/binwire's primitives (varint the zig-zag signed form, uvarint the
// unsigned one, a string its uvarint length then its bytes, a float its
// float64 bits, a bool one byte). It is two parts, the fields jobs of one
// kind repeat and then the fields each job has of its own:
//
//	shared   byte recordVersion, then the head: device string, migrations
//	         varint, score float, pinned string, user string, shots varint,
//	         priority varint, deadline_ms float, static_placement bool,
//	         error string, recovered bool, node string; then a byte, 1
//	         when the job has a result, 0 for none, and with a result its
//	         compiled_gates varint, cz_count varint, uvarint len(layout)
//	         then each qubit as a varint, compile_stats string and
//	         duration_us float
//	own      with a result, uvarint len(counts) then each (outcome, count)
//	         as two varints in the byte order circuit.Counts.AppendJSON
//	         writes the keys in, submit_time float and end_time float;
//	         then idem_key string
//
// The ID, the status, the submission instant and the journal LSN are the
// index entry's. Traffic repeats the shared part: a user's jobs of one
// circuit on one device are placed, compiled and timed alike. So the arena
// stores each distinct shared part once per chunk, led by its uvarint
// length, and a job's own part after it, led by a uvarint back-reference:
// how many bytes back from the back-reference that length starts. A reader
// gets the two parts as one record again (viewLocked), in the order above.
//
// The request circuit is stored beside the record in its binary form
// (circuit.AppendBinary): a variational loop's fresh angles take 8 bytes
// each, not ~18 of JSON digits. Traffic also repeats circuits (a
// recalibration's characterisation set, a fixed ansatz), so each distinct
// circuit is stored once per arena chunk too.
//
// Nothing reads the record as JSON: Record.Head and Record.Job decode it
// field by field, and the JSON a reader shows of its result and request is
// rendered from the stored bytes by the one writer a live job's goes
// through (Result.AppendFields encodes a live result into this form first).

// recordVersion leads every stored record: a change of the layout takes the
// next one. Version 1 kept the idempotency key in the head and the whole
// result after it; it was never written outside a process's memory.
const recordVersion = 2

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

// span is a run of bytes in one arena chunk.
type span struct{ off, n uint32 }

// entry is one job of the index, in ID order. It holds no pointer.
type entry struct {
	id       int
	ackLSN   uint64
	submitMs int64
	chunk    uint32 // arena chunk of the stored record and its circuit
	rec      span   // the record's own part, led by the back-reference to its shared part
	circ     span   // the request circuit's binary form, shared by the chunk's records that repeat it; empty for none
	user     uint32 // the job's user, by its Scheduler.users number
	state    uint8  // sealedStates code; 0 while live
}

// arenaChunk is the size of one arena allocation; a record longer than it
// gets a chunk of its own. It holds ~600 hybrid-loop records (~0.4 KB
// stored each, circuit included), about 60 % of the circuit table's slots.
const arenaChunk = 1 << 18

// internSlots is the size of each of the arena's intern tables, and
// internProbes how many slots from a string's home a lookup tries. A chunk
// holds a few thousand records at most, and a workload that repeats
// circuits or shared parts repeats a few of them; the probes keep two of
// those whose hashes share a home slot from evicting each other, storing
// each again per job.
const (
	internSlots  = 1024
	internProbes = 4
)

// internTable finds the byte strings of one kind stored in the arena's last
// chunk by their bytes. A slot is the span of one; the zero span is an
// empty slot.
type internTable [internSlots]span

// arena is append-only: a record's bytes never change once written. Its
// chunks come from mapChunk, outside the garbage-collected heap where the
// platform allows it (arena_mmap.go), so the records neither count toward
// the collector's heap goal nor are marked. No slice of a chunk leaves
// Scheduler.mu: a reader copies a record out under the lock, so the chunks
// can be unmapped once the scheduler is unreachable.
//
// A chunk is self-contained: the circuits and the shared parts its records
// read are in it, so dropping a whole chunk drops nothing another chunk
// reads.
type arena struct {
	chunks [][]byte
	bytes  int64 // stored bytes: the records' shared and own parts, and their circuits' binary forms

	// circuits and shared intern the last chunk's circuits and records'
	// shared parts, in tables of their own: a chunk of fresh-angle
	// circuits fills its circuit table without evicting the few shared
	// parts its records repeat. Both are cleared when a chunk starts, and
	// a slot is taken as a match only when its bytes equal the string's.
	circuits, shared internTable
	seed             maphash.Seed
	mask             uint64 // a hash's home slot is hash & mask
}

// newArena is an empty arena whose chunks are unmapped when it becomes
// unreachable. The finalizer sits on the arena, not the Scheduler: the
// scheduler's cond references its mutex, a cycle a finalizer never runs on.
func newArena() *arena {
	a := &arena{seed: maphash.MakeSeed(), mask: internSlots - 1}
	runtime.SetFinalizer(a, (*arena).free)
	return a
}

// add stores a record, its shared part and its own part, and c, its
// circuit's binary form, in the last chunk: c and the shared part each once
// per chunk (a uvarint length leads the shared part), unless the chunk
// holds those bytes already, then the own part, led by its back-reference.
// It returns the chunk, the own part's span and the circuit's.
func (a *arena) add(shared, own, c []byte) (chunk uint32, rec, circ span) {
	last := len(a.chunks) - 1
	var ch []byte
	var cslot, sslot *span
	cfound, sfound := false, false
	if last >= 0 {
		ch = a.chunks[last]
		cslot, cfound = a.lookup(&a.circuits, ch, c)
		sslot, sfound = a.lookup(&a.shared, ch, shared)
	}
	// The back-reference takes at most MaxVarintLen32 bytes: no chunk is
	// 4 GiB.
	need := binary.MaxVarintLen32 + len(own)
	if !cfound {
		need += len(c)
	}
	if !sfound {
		need += binary.MaxVarintLen32 + len(shared)
	}
	if last < 0 || len(ch)+need > cap(ch) {
		ch = mapChunk(max(arenaChunk, 2*binary.MaxVarintLen32+len(shared)+len(own)+len(c)))
		a.chunks = append(a.chunks, ch)
		last++
		a.circuits, a.shared = internTable{}, internTable{}
		cslot, cfound = a.lookup(&a.circuits, nil, c)
		sslot, sfound = a.lookup(&a.shared, nil, shared)
	}
	start := len(ch)
	if !cfound {
		*cslot = span{uint32(len(ch)), uint32(len(c))}
		ch = append(ch, c...)
	}
	if !sfound {
		ch = binary.AppendUvarint(ch, uint64(len(shared)))
		*sslot = span{uint32(len(ch)), uint32(len(shared))}
		ch = append(ch, shared...)
	}
	at := len(ch)
	ch = binary.AppendUvarint(ch, uint64(at-sharedStart(*sslot)))
	ch = append(ch, own...)
	a.chunks[last] = ch
	a.bytes += int64(len(ch) - start)
	return uint32(last), span{uint32(at), uint32(len(ch) - at)}, *cslot
}

// sharedStart is the offset of the length that leads shared part s.
func sharedStart(s span) int {
	n := 1
	for x := s.n; x >= 0x80; x >>= 7 {
		n++
	}
	return int(s.off) - n
}

// record is the two parts of the record whose own part, led by its
// back-reference, is rec of chunk ch.
func record(ch []byte, rec span) (shared, own []byte) {
	r := binwire.Reader{B: ch[rec.off : rec.off+rec.n]}
	back := r.Uvarint()
	own = r.B
	r = binwire.Reader{B: ch[uint64(rec.off)-back:]}
	shared = r.Next(r.Uvarint())
	if r.Err != nil || back == 0 {
		panic(fmt.Sprintf("fleet: a stored record's back-reference %d at %d does not read back", back, rec.off))
	}
	return shared, own
}

// lookup finds string c among table t's strings of the last chunk, ch. It
// probes from c's home slot and reports the slot holding c's bytes, found,
// or else the slot add fills: the first empty one, or c's home.
func (a *arena) lookup(t *internTable, ch, c []byte) (slot *span, found bool) {
	home := maphash.Bytes(a.seed, c)
	for i := uint64(0); i < internProbes; i++ {
		s := &t[(home+i)&a.mask]
		if s.n == 0 {
			return s, false
		}
		if bytes.Equal(ch[s.off:s.off+s.n], c) {
			return s, true
		}
	}
	return &t[home&a.mask], false
}

// free returns every chunk to the system. Nothing reads the arena after it.
func (a *arena) free() {
	for _, c := range a.chunks {
		unmapChunk(c)
	}
	a.chunks = nil
}

// storedReader reads a stored record.
type storedReader struct{ binwire.Reader }

// readStored is a reader at the start of stored bytes b.
func readStored(b []byte) storedReader { return storedReader{binwire.Reader{B: b}} }

// appendStored appends j's stored record to b, and reports where its own
// part starts in the bytes it returns.
func (j *Job) appendStored(b []byte) (_ []byte, own int) {
	b = binwire.AppendString(append(b, recordVersion), j.Device)
	b = binary.AppendVarint(b, int64(j.Migrations))
	b = binwire.AppendString(binwire.AppendFloat(b, j.Score), j.Pinned)
	b = binwire.AppendString(b, j.Request.User)
	b = binary.AppendVarint(b, int64(j.Request.Shots))
	b = binary.AppendVarint(b, int64(j.Request.Priority))
	b = binwire.AppendBool(binwire.AppendFloat(b, j.Request.DeadlineMs), j.Request.StaticPlacement)
	b = binwire.AppendBool(binwire.AppendString(b, j.Error), j.Recovered)
	b = binwire.AppendString(b, j.Node)
	if j.Result == nil {
		b = append(b, 0)
		own = len(b)
	} else {
		b, own = encodeResult(j.Result, append(b, 1))
	}
	return binwire.AppendString(b, j.IdemKey), own
}

// encodeResult is Result.appendStored, a variable only so that a test can
// count encodes (export_test.go).
var encodeResult = (*Result).appendStored

// appendStored appends the result's stored form to b, the members a
// record's shared part holds and then those of its own part, and reports
// where the latter start in the bytes it returns.
func (r *Result) appendStored(b []byte) (_ []byte, own int) {
	b = binary.AppendVarint(b, int64(r.CompiledGates))
	b = binary.AppendVarint(b, int64(r.CZCount))
	b = binary.AppendUvarint(b, uint64(len(r.Layout)))
	for _, q := range r.Layout {
		b = binary.AppendVarint(b, int64(q))
	}
	b = binwire.AppendString(b, r.CompileStats)
	b = binwire.AppendFloat(b, r.DurationUs)
	own = len(b)
	b = binary.AppendUvarint(b, uint64(len(r.Counts)))
	r.Counts.Range(func(outcome, n int) {
		b = binary.AppendVarint(binary.AppendVarint(b, int64(outcome)), int64(n))
	})
	b = binwire.AppendFloat(b, r.SubmitTime)
	return binwire.AppendFloat(b, r.EndTime), own
}

// head reads a stored record's version and head.
func (r *storedReader) head() (h Head) {
	if v := r.Next(1); v != nil && v[0] != recordVersion {
		r.Fail(fmt.Errorf("stored record version %d, want %d", v[0], recordVersion))
	}
	h.Device = r.Str()
	h.Migrations = r.Int()
	h.Score = r.Float()
	h.Pinned = r.Str()
	h.User = r.Str()
	h.Shots = r.Int()
	h.Priority = r.Int()
	h.DeadlineMs = r.Float()
	h.StaticPlacement = r.Bool()
	h.Error = r.Str()
	h.Recovered = r.Bool()
	h.Node = r.Str()
	return h
}

// toResult moves a reader at a record's start past its head to its result,
// and reports whether the job has one.
func (r *storedReader) toResult() bool {
	r.head()
	return r.Bool()
}

// result decodes a stored result.
func (r *storedReader) result() *Result {
	res := new(Result)
	res.CompiledGates = r.Int()
	res.CZCount = r.Int()
	if n := r.Count(1); n > 0 {
		res.Layout = make([]int, n)
		for i := range res.Layout {
			res.Layout[i] = r.Int()
		}
	}
	res.CompileStats = r.Str()
	res.DurationUs = r.Float()
	if n := r.Count(2); n > 0 {
		res.Counts = make(circuit.Counts, n)
		for i := 0; i < n; i++ {
			k := r.Int()
			res.Counts[k] = r.Int()
		}
	}
	res.SubmitTime = r.Float()
	res.EndTime = r.Float()
	return res
}

// Record is a sealed job: its stored record copied out of the arena into a
// buffer of the caller's, with its request circuit's binary form when it was
// copied with its request. Its bytes stay valid until the caller reuses
// that buffer.
type Record struct {
	ID           int
	Status       JobStatus
	SubmitUnixMs int64

	stored, circuit []byte
	withRequest     bool
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

// request is the request h was read from, without its circuit.
func (h *Head) request() qrm.Request {
	return qrm.Request{Shots: h.Shots, Priority: h.Priority, User: h.User, DeadlineMs: h.DeadlineMs, StaticPlacement: h.StaticPlacement}
}

// Head reads the record's scalar fields.
func (r Record) Head() (Head, error) {
	rd := readStored(r.stored)
	h := rd.head()
	h.ID = r.ID
	if rd.Err != nil {
		return h, fmt.Errorf("fleet: job %d: stored record: %w", r.ID, rd.Err)
	}
	return h, nil
}

// zeroResult is a zero Result's stored form.
var zeroResult, _ = new(Result).appendStored(nil)

// AppendResultFields appends the members of the job's result object, the
// bytes Result.AppendFields wrote of it live; of a zero Result when the job
// has none, as the v2 record shows one.
func (r Record) AppendResultFields(b []byte) ([]byte, error) {
	rd := readStored(r.stored)
	if !rd.toResult() && rd.Err == nil {
		rd = readStored(zeroResult)
	}
	b, err := appendResultFields(b, &rd)
	if err != nil {
		return b, fmt.Errorf("fleet: job %d: stored record: %w", r.ID, err)
	}
	return b, nil
}

// errNoRequest is what AppendRequest reports of a record copied without its
// request.
var errNoRequest = errors.New("fleet: sealed record copied without its request")

// viewCircuits are the circuits AppendRequest decodes a stored circuit into
// to render it: a decode reuses the last one's arrays.
var viewCircuits = sync.Pool{New: func() any { return new(circuit.Circuit) }}

// AppendRequest appends the request's JSON object, the bytes
// Request.AppendJSON wrote of it live, its circuit decoded from its binary
// form. The record must be copied with its request.
func (r Record) AppendRequest(b []byte) ([]byte, error) {
	if !r.withRequest {
		return b, errNoRequest
	}
	h, err := r.Head()
	if err != nil {
		return b, err
	}
	req := h.request()
	if len(r.circuit) > 0 {
		c := viewCircuits.Get().(*circuit.Circuit)
		defer viewCircuits.Put(c)
		if err := c.UnmarshalBinary(r.circuit); err != nil {
			return b, fmt.Errorf("fleet: job %d: %w", r.ID, err)
		}
		req.Circuit = c
	}
	return req.AppendJSON(b)
}

// Job decodes the record into the job it was stored from, with its request
// circuit when the record was copied with its request. The job shares no
// bytes with the record.
func (r Record) Job() (*Job, error) {
	// The job's strings share one copy of the record.
	rd := readStored(bytes.Clone(r.stored))
	h := rd.head()
	j := Job{ID: r.ID, Device: h.Device, Migrations: h.Migrations, Score: h.Score, Pinned: h.Pinned, Error: h.Error,
		SubmitUnixMs: r.SubmitUnixMs, Recovered: h.Recovered, Node: h.Node}
	j.Request = h.request()
	if rd.Bool() {
		j.Result = rd.result()
	}
	j.IdemKey = rd.Str()
	if len(rd.B) > 0 {
		rd.Fail(fmt.Errorf("%w: %d bytes past its end", binwire.ErrMalformed, len(rd.B)))
	}
	if rd.Err != nil {
		return nil, fmt.Errorf("fleet: job %d: stored record: %w", r.ID, rd.Err)
	}
	if len(r.circuit) > 0 {
		j.Request.Circuit = new(circuit.Circuit)
		if err := j.Request.Circuit.UnmarshalBinary(r.circuit); err != nil {
			return nil, fmt.Errorf("fleet: job %d: %w", r.ID, err)
		}
	}
	return withStatus(j, r.Status), nil
}

// withStatus is a job decoded from a sealed record, given the status its
// index entry holds. It takes the job by value: what it writes can never be
// a scheduler record.
func withStatus(cp Job, st JobStatus) *Job {
	cp.Status = st
	return &cp
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
// sealed record is appended to *buf (nil: a new buffer), its shared part and
// its own part as one record, with its request circuit when withRequest is
// set. Caller holds s.mu.
func (s *Scheduler) viewLocked(e *entry, withRequest bool, buf *[]byte) View {
	if e.state == 0 {
		cp := *s.jobs[e.id]
		return View{ID: e.id, Live: &cp}
	}
	ch := s.arena.chunks[e.chunk]
	shared, own := record(ch, e.rec)
	circ := ch[e.circ.off : e.circ.off+e.circ.n]
	if !withRequest {
		circ = nil
	}
	n := len(shared) + len(own)
	if buf == nil {
		b := make([]byte, 0, n+len(circ))
		buf = &b
	}
	start := len(*buf)
	*buf = append(append(append(*buf, shared...), own...), circ...)
	b := (*buf)[start:len(*buf):len(*buf)]
	return View{ID: e.id, Sealed: Record{
		ID:           e.id,
		Status:       sealedStates[e.state],
		SubmitUnixMs: e.submitMs,
		stored:       b[:n:n],
		circuit:      b[n:],
		withRequest:  withRequest,
	}}
}

// headLocked reads sealed entry e's head where it is stored, in its shared
// part: its strings share the arena. Caller holds s.mu.
func (s *Scheduler) headLocked(e *entry) (Head, error) {
	shared, _ := record(s.arena.chunks[e.chunk], e.rec)
	return Record{ID: e.id, stored: shared}.Head()
}

// maxSpareRecord bounds the seal buffer kept for reuse: one outsized record
// does not pin its buffer for the life of the process.
const maxSpareRecord = 64 << 10

// sealLocked turns terminal job j into its stored form — rec, its stored
// record as finalizeLocked encoded it into s.sealBuf, its own part from
// offset own (rec nil: encode it here, for a job Restore hands in
// terminal), and the request circuit's binary form — copied into the arena.
// j leaves s.jobs, so nothing of the scheduler references it any more, and j
// itself is not written, so a waiter still holding it reads it as it
// settled. Caller holds s.mu.
func (s *Scheduler) sealLocked(j *Job, rec []byte, own int) {
	if rec == nil {
		rec, own = j.appendStored(s.sealBuf[:0])
	}
	b, n := rec, len(rec)
	if c := j.Request.Circuit; c != nil {
		b = c.AppendBinary(b)
	}
	if cap(b) <= maxSpareRecord {
		s.sealBuf = b[:0]
	} else {
		s.sealBuf = nil
	}
	e := &s.index[s.findLocked(j.ID)]
	e.chunk, e.rec, e.circ = s.arena.add(b[:own], b[own:n], b[n:])
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
