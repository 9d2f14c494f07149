package durable

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
)

// FuzzWALReplay throws arbitrary bytes at the replay path as a journal
// segment: Open must never panic and must always come back writable,
// whatever garbage a crash (or a hostile disk) left behind. CI runs a
// short -fuzz smoke on top of the checked-in corpus below.
func FuzzWALReplay(f *testing.F) {
	// Seed corpus: a clean segment, its torn and bit-flipped variants, and
	// the degenerate shapes the frame reader branches on. The 'Q' frame is a
	// legacy single-device record and the 'I' frames are legacy key bindings
	// (nothing writes either any more), so the corpus covers both upgrade
	// decodes; the 'F' frame is the shape that carries the key today.
	var clean []byte
	clean = appendFrame(clean, 1, []byte(`Q{"job":{"id":1,"status":"queued"}}`))
	clean = appendFrame(clean, 2, []byte(`I{"key":"k","job_id":1}`))
	clean = appendFrame(clean, 3, []byte(`M{"snapshot_lsn":2}`))
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	flipped := append([]byte(nil), clean...)
	flipped[9] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F}) // huge declared length, no body
	f.Add(appendFrame(nil, 7, nil))       // empty payload (no kind byte)
	f.Add(appendFrame(nil, 1, []byte(`I{"key":"k","job_id":1}`)))
	f.Add(appendFrame(nil, 1, []byte(`F{"job":{"id":1,"status":"pending","idem_key":"k"}}`)))
	// Status spellings: "pending" is what queued was called before the
	// lifecycle had one spelling (it must re-queue), and a status nobody ever
	// wrote must re-queue too — never pass for terminal.
	f.Add(appendFrame(nil, 1, []byte(`F{"submit_unix_ms":7,"job":{"id":2,"status":"pending","request":{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5,"priority":0,"user":"u"}}}`)))
	f.Add(appendFrame(nil, 1, []byte(`F{"job":{"id":3,"status":"finished?","request":{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5,"priority":0,"user":"u"}}}`)))
	// 'U' updates: an orphan (no record of its job), one journaled ahead of
	// its job's 'F' (skipped: the 'F' then replaces the job whole), a torn
	// one after its 'F', and one naming a status nobody writes.
	submitted := []byte(`F{"submit_unix_ms":7,"job":{"id":4,"status":"queued","request":{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5,"priority":0,"user":"u"},"idem_key":"k"}}`)
	done := []byte(`U{"id":4,"status":"done","device":"a","score":0.9,"result":{"counts":{"0":3,"3":2},"submit_time":0}}`)
	f.Add(appendFrame(nil, 1, done))
	f.Add(appendFrame(appendFrame(nil, 1, done), 2, submitted))
	torn := appendFrame(appendFrame(nil, 1, submitted), 2, done)
	f.Add(torn[:len(torn)-9])
	f.Add(appendFrame(appendFrame(nil, 1, submitted), 2, []byte(`U{"id":4,"status":"finished?","recovered":true,"submit_unix_ms":9}`)))
	// A done job is sealed, so its histogram is written again: keys of one
	// to eleven digits, tied prefixes and a count past 2^20.
	wide := []byte(`U{"id":4,"status":"done","device":"a","score":0.9,"result":{"counts":{"0":1,"1":2,"10":3,"100":4,"1048576":5,"2":1048577,"2147483647":6,"21474836470":7},"submit_time":0}}`)
	f.Add(appendFrame(appendFrame(nil, 1, submitted), 2, wide))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, rec, err := Open(dir, Options{Sync: SyncOff})
		if err != nil {
			// I/O errors are legal; panics and hangs are the bug class.
			return
		}
		history := 0
		for _, j := range rec.FleetJobs {
			if j == nil {
				t.Fatal("replay surfaced a nil job")
			}
			if j.Status == "pending" {
				t.Fatalf("job %d replayed with the legacy spelling", j.ID)
			}
			if s := j.Status; j.ID > 0 && (s == fleet.JobDone || s == fleet.JobFailed || s == fleet.JobCancelled) {
				history++
			}
		}
		// Only the three terminal spellings are history; whatever else a
		// frame claims, the scheduler re-queues it (no devices: it parks).
		sched := fleet.New(fleet.PolicyBestFidelity, nil)
		rs, err := sched.Restore(rec.FleetJobs)
		sched.Stop()
		if err != nil || rs.Terminal != history {
			t.Fatalf("restore = %+v (%v), want %d terminal", rs, err, history)
		}
		// The store must stay writable after swallowing garbage.
		st.JournalFleetJob(&fleet.Job{ID: 999, Status: fleet.JobQueued})
		if err := st.Close(); err != nil {
			t.Fatalf("close after garbage replay: %v", err)
		}
	})
}
