package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/qrm"
	"repro/internal/transpile"
)

// assertNoRecordKind fails when any snapshot or journal file in dir still
// holds a record of the given kind.
func assertNoRecordKind(t *testing.T, dir string, kind byte) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		readFrames(data, func(_ uint64, payload []byte) {
			if len(payload) > 0 && payload[0] == kind {
				t.Errorf("%s still holds a %q record after compaction", ent.Name(), kind)
			}
		})
	}
}

// TestLegacyQRMRecordsUpgrade replays a data dir written by a single-device
// daemon (hand-framed 'Q' records): every job must come back as a fleet
// record under its original ID, in-flight work re-queues, terminal work
// stays terminal, and one Compact leaves no 'Q' payload on disk.
func TestLegacyQRMRecordsUpgrade(t *testing.T) {
	dir := t.TempDir()
	var seg []byte
	for i, body := range []string{
		`Q{"submit_unix_ms":4242,"job":{"id":1,"status":"queued","request":{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5,"priority":0,"user":"u","batch_id":3},"submit_time":0}}`,
		`Q{"job":{"id":2,"status":"running","request":{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5,"priority":0,"user":"u"},"compiled_gates":4,"submit_time":0,"node":"node-a"}}`,
		`Q{"job":{"id":3,"status":"done","request":{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5,"priority":0,"user":"u"},"counts":{"0":3,"1":2},"duration_us":12,"submit_time":0,"end_time":1}}`,
		`Q{"job":{"id":4,"status":"interrupted","request":{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5,"priority":0,"user":"u"},"submit_time":0,"end_time":1}}`,
	} {
		seg = appendFrame(seg, uint64(i+1), []byte(body))
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	st, rec, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]*fleet.Job{}
	for _, j := range rec.FleetJobs {
		byID[j.ID] = j
	}
	if len(rec.FleetJobs) != 4 || len(byID) != 4 {
		t.Fatalf("recovered %d jobs (%d distinct), want 4", len(rec.FleetJobs), len(byID))
	}
	if j := byID[1]; j.Status != fleet.JobQueued || j.Result != nil || j.SubmitUnixMs != 4242 ||
		j.Request.Shots != 5 || j.Request.Circuit == nil {
		t.Errorf("queued job converted wrong: %+v", j)
	}
	if j := byID[2]; j.Status != fleet.JobQueued || j.Result != nil || j.Node != "node-a" {
		t.Errorf("running job converted wrong: %+v", j)
	}
	if j := byID[3]; j.Status != fleet.JobDone || j.Result == nil ||
		j.Result.Counts[0] != 3 || j.Result.Counts[1] != 2 || j.Result.DurationUs != 12 {
		t.Errorf("done job converted wrong: %+v (result %+v)", j, j.Result)
	}
	if j := byID[4]; j.Status != fleet.JobFailed || j.Error != qrm.ErrInterruptedMsg {
		t.Errorf("interrupted job converted wrong: %+v", j)
	}

	// No devices registered: the two re-queued jobs park instead of running.
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	defer f.Stop()
	f.AttachStore(st)
	rs, err := f.Restore(rec.FleetJobs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Requeued != 2 || rs.Terminal != 2 || rs.Expired != 0 {
		t.Fatalf("restore stats = %+v, want 2 re-queued + 2 terminal", rs)
	}

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoRecordKind(t, dir, recLegacyQRMJob)
	st2, rec2, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(rec2.FleetJobs) != 4 {
		t.Fatalf("reopen after compaction recovered %d jobs, want 4", len(rec2.FleetJobs))
	}
}

// parentKeyedResults is what testdata/parent-keyed's terminal frames record
// as each done job's result — written when the result still repeated the
// job's id, status and request. Each must read back field for field.
var parentKeyedResults = func() map[int]fleet.Result {
	out := map[int]fleet.Result{}
	for id, counts := range map[int]circuit.Counts{
		1: {0: 2, 768: 2}, 2: {0: 1, 768: 3}, 3: {0: 2, 768: 2}, 4: {0: 4}, 5: {0: 1, 768: 3},
	} {
		out[id] = fleet.Result{
			CompiledGates: 7, CZCount: 1, Layout: transpile.Layout{8, 9},
			CompileStats: "transpile{gates 2→7, depth 2→5, 2q 1→1 cz, swaps 0}",
			Counts:       counts, DurationUs: 1206.4, SubmitTime: 0, EndTime: 0,
		}
	}
	return out
}()

// checkParentKeyedResult fails when a recovered done job of
// testdata/parent-keyed does not carry the result its frame recorded.
func checkParentKeyedResult(t *testing.T, stage string, j *fleet.Job) {
	t.Helper()
	if want := parentKeyedResults[j.ID]; j.Result == nil || !reflect.DeepEqual(*j.Result, want) {
		t.Errorf("%s: job %d result %+v, want %+v", stage, j.ID, j.Result, want)
	}
}

// TestLegacyIdemRecordsUpgrade opens testdata/parent-keyed — a data dir
// written by the last commit that journaled Idempotency-Key bindings as
// their own 'I' records (v2 keyed submits, one compaction, more keyed
// submits: 'I' frames in the snapshot and in the journal, each journal one
// followed by a keyless terminal 'F' of its job). Every binding must come
// back on its job, a retry of each key must replay the original ID, and one
// Compact must leave no 'I' frame on disk.
func TestLegacyIdemRecordsUpgrade(t *testing.T) {
	want := map[int]string{1: "snap-key-1", 2: "", 3: "snap-key-2", 4: "wal-key-1", 5: "wal-key-2"}
	dir := copyDir(t, filepath.Join("testdata", "parent-keyed"))
	sawIdem := map[string]bool{}
	for _, name := range []string{snapshotName, segmentName(2)} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		readFrames(data, func(_ uint64, payload []byte) {
			sawIdem[name] = sawIdem[name] || payload[0] == recLegacyIdem
		})
	}
	if !sawIdem[snapshotName] || !sawIdem[segmentName(2)] {
		t.Fatalf("fixture lost its 'I' frames: %v", sawIdem)
	}

	check := func(stage string, rec *Recovery) {
		t.Helper()
		if len(rec.FleetJobs) != len(want) {
			t.Fatalf("%s: recovered %d jobs, want %d", stage, len(rec.FleetJobs), len(want))
		}
		for _, j := range rec.FleetJobs {
			if j.IdemKey != want[j.ID] || j.Status != fleet.JobDone {
				t.Errorf("%s: job %d recovered %s with key %q, want done with %q", stage, j.ID, j.Status, j.IdemKey, want[j.ID])
			}
			checkParentKeyedResult(t, stage, j)
		}
		f := fleet.New(fleet.PolicyBestFidelity, nil)
		defer f.Stop()
		if _, err := f.Restore(rec.FleetJobs); err != nil {
			t.Fatal(err)
		}
		for id, key := range want {
			if key == "" {
				continue
			}
			got, replayed, err := f.SubmitKeyed(qrm.Request{Circuit: circuit.GHZ(2), Shots: 4}, fleet.SubmitOptions{IdemKey: key})
			if err != nil || !replayed || got != id {
				t.Errorf("%s: retry of %q = job %d replayed %v (%v), want job %d replayed", stage, key, got, replayed, err, id)
			}
		}
	}
	st, rec, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	check("upgrade open", rec)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoRecordKind(t, dir, recLegacyIdem)
	st2, rec2, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check("reopen after compaction", rec2)
}

// TestLegacyBatchRecordsReplay: WAL records written while jobs still had a
// batch ID — an 'F' record from /api/v1/jobs/batch and a 'Q' record — replay
// to the same job as before, minus the field.
func TestLegacyBatchRecordsReplay(t *testing.T) {
	dir := t.TempDir()
	var seg []byte
	for i, body := range []string{
		`F{"submit_unix_ms":77,"job":{"id":1,"status":"done","device":"alpha","local_id":1,"score":0.9,"batch_id":2,"request":{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5,"priority":0,"user":"u","batch_id":2},"result":{"id":1,"status":"done","request":{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5,"priority":0,"user":"u","batch_id":2},"counts":{"0":4,"3":1},"submit_time":0}}}`,
		`Q{"job":{"id":2,"status":"done","request":{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5,"priority":0,"user":"u","batch_id":2},"counts":{"0":5},"submit_time":0}}`,
	} {
		seg = appendFrame(seg, uint64(i+1), []byte(body))
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(rec.FleetJobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rec.FleetJobs))
	}
	for _, j := range rec.FleetJobs {
		if j.Status != fleet.JobDone || j.Request.User != "u" || j.Request.Shots != 5 ||
			j.Result == nil || len(j.Result.Counts) == 0 {
			t.Errorf("job %d replayed wrong: %+v (result %+v)", j.ID, j, j.Result)
		}
		if j.ID == 1 && (j.Device != "alpha" || j.Score != 0.9 || j.SubmitUnixMs != 77 ||
			j.Result.Counts[0] != 4 || j.Result.Counts[3] != 1) {
			t.Errorf("'F' record replayed wrong: %+v (result %+v)", j, j.Result)
		}
	}
	for _, j := range rec.FleetJobs {
		data, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("batch_id")) {
			t.Errorf("job %d still encodes batch_id: %s", j.ID, data)
		}
	}
}

// TestLegacyPendingSpelling opens testdata/parent-keyed — written when a
// queued job was journaled as "pending" — cut at the two frames a kill -9
// could have left job 5 in flight on: its "pending" submit record and its
// "routed" placement. Either way the store must open, job 5 must re-queue
// under its own ID with the status spelled "queued", the keys must still
// replay, and one Compact must leave no "pending" on disk.
func TestLegacyPendingSpelling(t *testing.T) {
	src := filepath.Join("testdata", "parent-keyed")
	journal, err := os.ReadFile(filepath.Join(src, segmentName(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Frame ends, and which of them close an in-flight record of job 5.
	var cuts []int
	off := 0
	readFrames(journal, func(lsn uint64, payload []byte) {
		off += len(appendFrame(nil, lsn, payload))
		for _, st := range []string{"pending", "routed"} {
			if bytes.HasPrefix(payload, []byte(`F{"submit_unix_ms":1790911298343,"job":{"id":5,"status":"`+st+`"`)) {
				cuts = append(cuts, off)
			}
		}
	})
	if len(cuts) != 2 || !bytes.Contains(journal[:cuts[0]], []byte(`"status":"pending"`)) {
		t.Fatalf("fixture lost its in-flight frames of job 5 (cuts %v)", cuts)
	}
	for i, cut := range cuts {
		dir := copyDir(t, src)
		if err := os.WriteFile(filepath.Join(dir, segmentName(2)), journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, rec, err := Open(dir, Options{Sync: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		want := []fleet.JobStatus{fleet.JobQueued, fleet.JobRouted}[i]
		for _, j := range rec.FleetJobs {
			if j.ID == 5 && j.Status != want {
				t.Errorf("cut %d: job 5 replayed as %q, want %q", i, j.Status, want)
			} else if j.ID != 5 && j.Status != fleet.JobDone {
				t.Errorf("cut %d: job %d replayed as %q, want done", i, j.ID, j.Status)
			} else if j.ID != 5 {
				checkParentKeyedResult(t, fmt.Sprintf("cut %d", i), j)
			}
		}
		// No devices: the re-queued job parks, which is all this test needs.
		f := fleet.New(fleet.PolicyBestFidelity, nil)
		f.AttachStore(st)
		rs, err := f.Restore(rec.FleetJobs)
		if err != nil || rs.Requeued != 1 || rs.Terminal != 4 {
			t.Fatalf("cut %d: restore = %+v (%v), want 1 re-queued + 4 terminal", i, rs, err)
		}
		if j, err := f.Job(5); err != nil || j.Status != fleet.JobQueued || !j.Recovered {
			t.Errorf("cut %d: job 5 after restore = %+v (%v), want queued and recovered", i, j, err)
		}
		if id, replayed, err := f.SubmitKeyed(qrm.Request{Circuit: circuit.GHZ(2), Shots: 4}, fleet.SubmitOptions{IdemKey: "wal-key-1"}); err != nil || !replayed || id != 4 {
			t.Errorf("cut %d: retry of wal-key-1 = job %d replayed %v (%v), want job 4 replayed", i, id, replayed, err)
		}
		if m := f.Metrics(); m.IllegalTransitions != 0 {
			t.Errorf("cut %d: IllegalTransitions = %d, want 0", i, m.IllegalTransitions)
		}
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		f.Stop()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(data, []byte("pending")) {
				t.Errorf("cut %d: %s still says \"pending\" after compaction", i, ent.Name())
			}
		}
	}
}
