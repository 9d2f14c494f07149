package durable

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// TestStoreRoundtrip journals job upserts, closes, and reopens: Recovery
// must hand back exactly the latest upsert of each job, its
// Idempotency-Key binding included.
func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.FleetJobs) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	st.JournalFleetJob(&fleet.Job{ID: 1, Status: fleet.JobQueued, SubmitUnixMs: 1111, IdemKey: "key-a"})
	st.JournalFleetJob(&fleet.Job{ID: 2, Status: fleet.JobQueued})
	st.JournalFleetJob(&fleet.Job{ID: 1, Status: fleet.JobDone, SubmitUnixMs: 1111, IdemKey: "key-a"})
	lsn := st.JournalFleetJob(&fleet.Job{ID: 7, Status: fleet.JobRouted, Device: "dev-0"})
	st.WaitDurable(lsn)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.FleetJobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(rec2.FleetJobs))
	}
	byID := map[int]*fleet.Job{}
	for _, j := range rec2.FleetJobs {
		byID[j.ID] = j
	}
	// Last-write-wins: job 1's terminal upsert shadows the pending one, and
	// the out-of-band SubmitUnixMs survives the json:"-" tag via the wrapper.
	if j := byID[1]; j == nil || j.Status != fleet.JobDone || j.SubmitUnixMs != 1111 {
		t.Fatalf("job 1 recovered wrong: %+v", byID[1])
	}
	if j := byID[2]; j == nil || j.Status != fleet.JobQueued {
		t.Fatalf("job 2 recovered wrong: %+v", byID[2])
	}
	if j := byID[7]; j == nil || j.Status != fleet.JobRouted || j.Device != "dev-0" {
		t.Fatalf("job 7 recovered wrong: %+v", byID[7])
	}
	if byID[1].IdemKey != "key-a" || byID[2].IdemKey != "" || byID[7].IdemKey != "" {
		t.Fatalf("idem bindings recovered wrong: 1=%q 2=%q 7=%q", byID[1].IdemKey, byID[2].IdemKey, byID[7].IdemKey)
	}
	if rec2.Stats.Records == 0 || rec2.Stats.SkippedBytes != 0 {
		t.Fatalf("replay stats wrong: %+v", rec2.Stats)
	}
}

// TestDoneFrameCarriesRequestOnce: the terminal 'F' frame of a job a device
// ran to done holds the request once, on the job; the result carries only
// what the run produced.
func TestDoneFrameCarriesRequestOnce(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	f.AttachStore(st)
	if err := f.AddDevice("a", qdmi.NewDevice(device.NewTwin20Q(3), nil), 1); err != nil {
		t.Fatal(err)
	}
	id, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(3), Shots: 8, User: "u"}, fleet.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j, err := f.Wait(id); err != nil || j.Status != fleet.JobDone {
		t.Fatalf("job %d: %+v (%v)", id, j, err)
	}
	f.Stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	var done []byte
	readFrames(data, func(_ uint64, payload []byte) {
		var r fleetJobRecord
		if payload[0] == recFleetJob && json.Unmarshal(payload[1:], &r) == nil &&
			r.Job.ID == id && r.Job.Status == fleet.JobDone {
			done = payload
		}
	})
	if done == nil {
		t.Fatal("no terminal frame for the done job")
	}
	if n := bytes.Count(done, []byte(`"circuit":`)); n != 1 {
		t.Errorf("done frame holds the circuit %d times, want 1: %s", n, done)
	}
	if !bytes.Contains(done, []byte(`"counts":`)) {
		t.Errorf("done frame lost its counts: %s", done)
	}
}

// TestStoreCompact pins compaction: the materialized view lands in
// snapshot.wal, sealed journal segments are deleted, and a reopen recovers
// the same state from snapshot + fresh WAL.
func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		j := &fleet.Job{ID: i, Status: fleet.JobDone}
		if i == 3 {
			j.IdemKey = "k"
		}
		st.JournalFleetJob(j)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot after compact: %v", err)
	}
	stats := st.Stats()
	if stats.Compactions != 1 || stats.SnapshotLSN == 0 {
		t.Fatalf("compact stats wrong: %+v", stats)
	}
	// A post-compaction record must land in the fresh segment and survive.
	st.JournalFleetJob(&fleet.Job{ID: 11, Status: fleet.JobQueued})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.FleetJobs) != 11 {
		t.Fatalf("recovered %d jobs after compact+reopen, want 11", len(rec.FleetJobs))
	}
	for _, j := range rec.FleetJobs {
		want := ""
		if j.ID == 3 {
			want = "k"
		}
		if j.IdemKey != want {
			t.Fatalf("job %d idem binding across compaction = %q, want %q", j.ID, j.IdemKey, want)
		}
	}
	if rec.Stats.SnapshotLSN == 0 {
		t.Fatalf("reopen did not see the snapshot: %+v", rec.Stats)
	}
}

// copyDir clones the store directory so each truncation trial replays a
// pristine copy of the crashed state.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashPointProperty is the crash-point property test: run a real
// one-device fleet against the store, abandon it mid-flight (kill -9),
// then truncate the WAL at EVERY byte offset inside the final record and
// replay each truncation. At every cut: replay must not panic, every acked
// job must be recovered exactly once (conservation — the submit ack waited
// for durability, and only the final record is cut), jobs whose terminal
// record survived must restore as terminal (never double-run), and a fresh
// scheduler must accept the restore. Runs under -race in the regular suite.
func TestCrashPointProperty(t *testing.T) {
	dir := t.TempDir()
	qpu, err := device.New(device.Config{Name: "crash-0", Rows: 4, Cols: 5, Seed: 11, DigitalTwin: true})
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	if err := f.AddDevice("crash-0", qdmi.NewDevice(qpu, nil), 2); err != nil {
		t.Fatal(err)
	}
	st, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	f.AttachStore(st)

	const jobs = 8
	var ids []int
	for i := 0; i < jobs; i++ {
		id, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(3), Shots: 4, User: "crash"}, fleet.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Every submission is acked, so its record is at or below acked. A
	// job's submit record can be its only one, and an acked record is never
	// torn; the axe falls after some later record, so the final frame the
	// cuts below tear is never the sole record of an acked job.
	acked := st.Stats().LastLSN
	// Let roughly half the batch finish so the WAL holds a mix of queued,
	// running, and terminal records when the axe falls.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	awaited := map[int]bool{}
	for _, id := range ids[:jobs/2] {
		if _, err := f.WaitContext(ctx, id); err != nil {
			t.Fatal(err)
		}
		awaited[id] = true
	}
	for st.Stats().LastLSN == acked {
		if ctx.Err() != nil {
			t.Fatal("no transition was journaled after the last submission")
		}
		time.Sleep(100 * time.Microsecond)
	}
	st.Abandon() // the kill: nothing from here reaches disk
	f.Stop()
	st.Close()

	// Locate the final frame of the last journal segment.
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no segments after crash: %v %v", seqs, err)
	}
	lastSeg := segmentName(seqs[len(seqs)-1])
	data, err := os.ReadFile(filepath.Join(dir, lastSeg))
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	lastStart := 0
	readFrames(data, func(lsn uint64, payload []byte) {
		frames++
		if off := lastStart + frameHeader + len(payload); off < len(data) {
			lastStart = off
		}
	})
	if frames < 2 {
		t.Fatalf("final segment has only %d frames; crash left too little to truncate", frames)
	}

	submitted := map[int]bool{}
	for _, id := range ids {
		submitted[id] = true
	}
	for cut := lastStart; cut <= len(data); cut++ {
		trial := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(trial, lastSeg), int64(cut)); err != nil {
			t.Fatal(err)
		}
		st2, rec, err := Open(trial, Options{Sync: SyncOff})
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		seen := map[int]bool{}
		for _, j := range rec.FleetJobs {
			if seen[j.ID] {
				t.Fatalf("cut at %d: job %d recovered twice", cut, j.ID)
			}
			seen[j.ID] = true
			if !submitted[j.ID] {
				t.Fatalf("cut at %d: recovered unknown job %d", cut, j.ID)
			}
		}
		// Conservation: every submit was acked only after its record was
		// fsynced, and the cut only ever removes the final record — so all
		// acked jobs must survive every truncation.
		if len(seen) != jobs {
			t.Fatalf("cut at %d: recovered %d jobs, want %d", cut, len(seen), jobs)
		}
		// No devices registered: re-queued jobs wait instead of executing,
		// so each trial only exercises the restore bookkeeping.
		f2 := fleet.New(fleet.PolicyBestFidelity, nil)
		rs, err := f2.Restore(rec.FleetJobs)
		f2.Stop()
		if err != nil {
			t.Fatalf("cut at %d: restore failed: %v", cut, err)
		}
		if rs.Terminal+rs.Requeued+rs.Expired != jobs {
			t.Fatalf("cut at %d: restore stats %+v do not conserve %d jobs", cut, rs, jobs)
		}
		// Never double-run: a job whose terminal record survived the cut must
		// restore as terminal, not re-enter the queue.
		terminalRecovered := 0
		for _, j := range rec.FleetJobs {
			switch j.Status {
			case fleet.JobDone, fleet.JobFailed, fleet.JobCancelled:
				terminalRecovered++
			}
		}
		if rs.Terminal != terminalRecovered {
			t.Fatalf("cut at %d: %d terminal records but %d terminal restores", cut, terminalRecovered, rs.Terminal)
		}
		if rs.Terminal < len(awaited)-1 {
			// At most the single truncated record can demote an awaited job
			// back to requeued (at-least-once, not at-most-once).
			t.Fatalf("cut at %d: %d terminal restores, want >= %d", cut, rs.Terminal, len(awaited)-1)
		}
		st2.Close()
	}

	// Untruncated replay: every awaited job restores terminal.
	st3, rec, err := Open(copyDir(t, dir), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	for _, j := range rec.FleetJobs {
		if awaited[j.ID] && j.Status != fleet.JobDone {
			t.Errorf("awaited job %d recovered as %s, want done", j.ID, j.Status)
		}
	}
}

// TestStoreAbandonSwallowsJournal pins the post-kill contract: journals are
// swallowed (stable LSN), WaitDurable returns, Close is safe.
func TestStoreAbandonSwallowsJournal(t *testing.T) {
	st, _, err := Open(t.TempDir(), Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	lsn := st.JournalFleetJob(&fleet.Job{ID: 1, Status: fleet.JobQueued})
	st.Abandon()
	if got := st.JournalFleetJob(&fleet.Job{ID: 2, Status: fleet.JobQueued}); got != lsn {
		t.Fatalf("journal after abandon advanced the lsn: %d -> %d", lsn, got)
	}
	st.WaitDurable(lsn + 50) // must not hang
	if err := st.Close(); err != nil {
		t.Fatalf("close after abandon: %v", err)
	}
}
