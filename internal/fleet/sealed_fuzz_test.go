package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"

	"repro/internal/circuit"
	"repro/internal/qrm"
)

// FuzzSealedRecord seals random terminal jobs through the scheduler's own
// seal and reads each back: the record a view copies out of the arena, its
// shared part and its own part joined, is the bytes the live job encodes
// to; the sealed record renders the result's members
// and the request with the bytes the live job writes, Record.Job decodes the
// job the record was stored from (the job encoding/json decodes from the
// live record's JSON), and Record.Head, read from the copy and where the
// record is stored, is Job.Head. The submission instant, stored beside the
// own part as a difference from the one that leads the chunk, reads back
// whatever its distance from that one, int64 wrap-around included.
//
// shape picks the job's form: bits 0-1 its terminal status, bit 2 a request
// circuit, bit 3 a result, bits 4-5 its layout and bits 6-7 its counts (0
// nil, 1 empty, else built from layout's and counts' bytes: a signed qubit
// per byte, and per 4 bytes a 20-bit outcome, negative when bit 7 of the
// third byte is set, and its count).
//
// One scheduler seals every input a fuzz worker runs, so the seeds share an
// arena chunk: the last seeds repeat the one before them but for the own
// part (a key, counts, the clock), so their records find its shared part,
// or differ from it in one field of the shared part, so theirs do not. Every
// circuit and shared part goes to one slot of its table (OneCircuitSlot),
// so only the byte compare tells those apart.
func FuzzSealedRecord(f *testing.F) {
	sub := math.Float64frombits(1) // the smallest subnormal
	f.Add("garnet-20", "", "u0", "", "", "", "", 0, 100, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, false, false, uint8(0x08), []byte(nil), []byte(nil), int64(1_700_000_000_000))
	f.Add("a", "a", "v", "", "", "", "", 0, 5, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, false, false, uint8(0x5c), []byte{}, []byte{}, int64(1_700_000_000_000))
	f.Add("d", "", `a "quoted" <user>`, "fail: \"q\" é   \x01", "node-a", "k\\1", "2q 2→2 cz\t", 2, 7, -3, 5, 2, math.Copysign(0, -1), sub, -sub, 0.0, math.Copysign(0, -1), true, true, uint8(0xae), []byte{1, 0, 0xfe}, []byte{0xff, 0xff, 0x0f, 9, 0, 0, 0, 1, 0x34, 0x12, 0x8a, 200}, int64(1_700_000_000_000))
	f.Add("b", "b", "w", "", "", "key", "", 1, 1<<40, 1, 99, 12, 0.875, 2.5, 12.25, 86400.0, 86400.5, false, true, uint8(0xfd), []byte{3, 2, 1, 0}, []byte{0, 0, 0x10, 1, 1, 0, 0, 2, 2, 0, 0, 3}, int64(1_700_000_000_000))
	f.Add("", "", "", "deadline exceeded before dispatch", "", "", "", 0, 0, 0, 0, 0, 1e-300, 1e308, 5e-324, -1.5, 0.0, true, false, uint8(0x01), []byte(nil), []byte(nil), int64(1_700_000_000_000))
	// A shared part, then jobs that share it and jobs that differ from it
	// in one field: the user, the score, the duration, the layout, the node.
	f.Add("garnet-20", "", "u0", "", "", "k-1", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.5, 86400.0, 86400.25, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{0, 0, 0, 40, 7, 0, 0, 60}, int64(1_700_000_000_000))
	f.Add("garnet-20", "", "u0", "", "", "k-2", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.5, 86400.5, 86400.75, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{0, 0, 0, 52, 7, 0, 0, 48}, int64(1_700_000_000_000))
	f.Add("garnet-20", "", "u0", "", "", "", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.5, 86401.0, 86401.25, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{1, 0, 0, 100}, int64(1_700_000_000_000))
	f.Add("garnet-20", "", "u1", "", "", "k-1", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.5, 86400.0, 86400.25, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{0, 0, 0, 40, 7, 0, 0, 60}, int64(1_700_000_000_000))
	f.Add("garnet-20", "", "u0", "", "", "k-1", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.94, 0.0, 1234.5, 86400.0, 86400.25, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{0, 0, 0, 40, 7, 0, 0, 60}, int64(1_700_000_000_000))
	f.Add("garnet-20", "", "u0", "", "", "k-1", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.75, 86400.0, 86400.25, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{0, 0, 0, 40, 7, 0, 0, 60}, int64(1_700_000_000_000))
	f.Add("garnet-20", "", "u0", "", "", "k-1", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.5, 86400.0, 86400.25, false, false, uint8(0xec), []byte{0, 1, 3, 2}, []byte{0, 0, 0, 40, 7, 0, 0, 60}, int64(1_700_000_000_000))
	f.Add("garnet-20", "", "u0", "", "node-b", "k-1", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.5, 86400.0, 86400.25, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{0, 0, 0, 40, 7, 0, 0, 60}, int64(1_700_000_000_000))
	// The shared part again, submitted at instants from the chunk's own to
	// the ends of int64: a difference of 0, one that wraps, a year, a
	// negative instant.
	f.Add("garnet-20", "", "u0", "", "", "k-3", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.5, 86400.0, 86400.25, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{0, 0, 0, 40}, int64(1_700_000_000_000))
	f.Add("garnet-20", "", "u0", "", "", "k-4", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.5, 86400.0, 86400.25, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{0, 0, 0, 40}, int64(math.MinInt64))
	f.Add("garnet-20", "", "u0", "", "", "k-5", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.5, 86400.0, 86400.25, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{0, 0, 0, 40}, int64(math.MaxInt64))
	f.Add("garnet-20", "", "u0", "", "", "k-6", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.5, 86400.0, 86400.25, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{0, 0, 0, 40}, int64(1_700_000_000_000+365*86_400_000))
	f.Add("garnet-20", "", "u0", "", "", "", "2q 4→4 cz", 0, 100, 0, 9, 4, 0.93, 0.0, 1234.5, 86400.0, 86400.25, false, false, uint8(0xec), []byte{0, 1, 2, 3}, []byte{0, 0, 0, 40}, int64(-1))
	s := New(PolicyBestFidelity, nil)
	defer s.Stop()
	s.OneCircuitSlot()
	id := 0
	f.Fuzz(func(t *testing.T, device, pinned, user, errMsg, node, idemKey, stats string,
		migrations, shots, priority, gates, cz int, score, deadline, duration, submit, end float64,
		static, recovered bool, shape uint8, layout, counts []byte, submitMs int64) {
		for _, x := range []float64{score, deadline, duration, submit, end} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("JSON cannot spell a non-finite float, and admission refuses one")
			}
		}
		j := &Job{Status: sealedStates[1+int(shape&3)%3], Device: device, Migrations: migrations, Score: score, Pinned: pinned,
			Error: errMsg, SubmitUnixMs: submitMs, Recovered: recovered, Node: node, IdemKey: idemKey}
		j.Request = qrm.Request{Shots: shots, Priority: priority, User: user, DeadlineMs: deadline, StaticPlacement: static}
		if shape&4 != 0 {
			j.Request.Circuit = circuit.GHZ(3)
		}
		if shape&8 != 0 {
			r := &Result{CompiledGates: gates, CZCount: cz, CompileStats: stats, DurationUs: duration, SubmitTime: submit, EndTime: end}
			switch shape >> 4 & 3 {
			case 0:
			case 1:
				r.Layout = []int{}
			default:
				for _, q := range layout {
					r.Layout = append(r.Layout, int(int8(q)))
				}
			}
			switch shape >> 6 {
			case 0:
			case 1:
				r.Counts = circuit.Counts{}
			default:
				r.Counts = circuit.Counts{}
				for i := 0; i+4 <= len(counts); i += 4 {
					k := int(counts[i]) | int(counts[i+1])<<8 | int(counts[i+2]&0x0f)<<16
					if counts[i+2]&0x80 != 0 {
						k = -k
					}
					r.Counts[k] = int(counts[i+3])
				}
			}
			j.Result = r
		}
		s.mu.Lock()
		id++
		j.ID = id
		s.addLocked(j)
		s.sealLocked(j, nil, 0)
		stored, err := s.headLocked(s.findLocked(j.ID))
		s.mu.Unlock()
		if want := j.Head(); err != nil || stored != want {
			t.Fatalf("head where it is stored %+v (%v), want %+v", stored, err, want)
		}
		v, err := s.View(j.ID, true, nil)
		if err != nil || v.Live != nil {
			t.Fatalf("view: %+v, %v; want it sealed", v, err)
		}
		r := v.Sealed
		if want, _ := j.appendStored(nil); !bytes.Equal(r.stored, want) {
			t.Fatalf("the sealed record reads\n%x\nthe live job encodes\n%x", r.stored, want)
		}
		if h, err := r.Head(); err != nil || h != j.Head() {
			t.Fatalf("Record.Head %+v (%v), Job.Head %+v", h, err, j.Head())
		}

		// The v2 record's parts the scheduler renders: the result's members
		// and the request.
		res := j.Result
		if res == nil {
			res = new(Result) // what the v2 record shows of no result
		}
		wantRes, err := res.AppendFields(nil)
		if err != nil {
			t.Fatal(err)
		}
		wantReq, err := j.Request.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.AppendResultFields(nil); err != nil || !bytes.Equal(got, wantRes) {
			t.Fatalf("sealed result members %s (%v), live %s", got, err, wantRes)
		}
		if got, err := r.AppendRequest(nil); err != nil || !bytes.Equal(got, wantReq) {
			t.Fatalf("sealed request %s (%v), live %s", got, err, wantReq)
		}

		live, err := j.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Job()
		if err != nil {
			t.Fatal(err)
		}
		if b, err := got.AppendJSON(nil); err != nil || !bytes.Equal(b, live) || got.SubmitUnixMs != j.SubmitUnixMs {
			t.Fatalf("Record.Job writes %s (%v, submitted %d)\nthe live job %s (submitted %d)", b, err, got.SubmitUnixMs, live, j.SubmitUnixMs)
		}
		// encoding/json decodes invalid UTF-8 as U+FFFD; the stored record
		// keeps the bytes.
		for _, str := range []string{device, pinned, user, errMsg, node, idemKey, stats} {
			if !utf8.ValidString(str) {
				return
			}
		}
		var want Job
		if err := json.Unmarshal(live, &want); err != nil {
			t.Fatal(err)
		}
		want.SubmitUnixMs = j.SubmitUnixMs
		// The circuits compare by their bytes, above: a decode from JSON and
		// one from the binary form may tell nil from empty where the JSON
		// does not.
		got.Request.Circuit, want.Request.Circuit = nil, nil
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("Record.Job %+v\nencoding/json decodes the live record to %+v", got, &want)
		}
	})
}
