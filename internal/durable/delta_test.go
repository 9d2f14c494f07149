package durable

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
	"repro/internal/tenant"
)

// sameJournaledFields fails when the job Open folded back differs from the
// scheduler's copy in any field the journal holds: both are encoded as the
// whole record a snapshot would write, which is every journaled field.
func sameJournaledFields(t *testing.T, stage string, folded, live *fleet.Job) {
	t.Helper()
	if folded == nil {
		t.Fatalf("%s: job %d did not come back", stage, live.ID)
	}
	got, gerr := appendJobRecord(nil, folded)
	want, werr := appendJobRecord(nil, live)
	if gerr != nil || werr != nil || !bytes.Equal(got, want) {
		t.Errorf("%s: job %d folds back as\n%s (%v)\nthe scheduler holds\n%s (%v)", stage, live.ID, got, gerr, want, werr)
	}
}

// reopen closes st (journal calls after it are swallowed), stops f, and
// returns the jobs Open folds from dir by ID.
func reopen(t *testing.T, dir string, st *Store, f *fleet.Scheduler) map[int]*fleet.Job {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f.Stop()
	st2, rec, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	byID := map[int]*fleet.Job{}
	for _, j := range rec.FleetJobs {
		byID[j.ID] = j
	}
	return byID
}

// until polls cond for up to 10 s.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestUpdateRoundTrip drives a real scheduler with a store attached through
// each row of the lifecycle table — the mint journals the whole record,
// every later move an update — and checks that Close + Open folds the job
// back equal to the scheduler's copy on every journaled field.
func TestUpdateRoundTrip(t *testing.T) {
	submit := func(t *testing.T, f *fleet.Scheduler, req qrm.Request) int {
		t.Helper()
		if req.Circuit == nil {
			req.Circuit = circuit.GHZ(2)
		}
		req.Shots, req.User = 5, "u"
		id, err := f.Submit(req, fleet.SubmitOptions{IdemKey: "key"})
		mustOK(t, err)
		return id
	}
	wait := func(t *testing.T, f *fleet.Scheduler, id int) {
		t.Helper()
		_, err := f.Wait(id)
		mustOK(t, err)
	}
	onDevice := func(t *testing.T, f *fleet.Scheduler, id int) {
		t.Helper()
		until(t, "the job to run", func() bool { j, _ := f.Job(id); return j.Status == fleet.JobRunning })
	}
	for _, tc := range []struct {
		name string
		// run drives job 1 to the state checked, through the row named.
		run   func(t *testing.T, f *fleet.Scheduler, qpu *device.QPU) int
		state fleet.JobStatus
		// submitted, when set, undoes on the scheduler's copy what run did
		// to the request after admission: the journal holds the request as
		// it was submitted.
		submitted func(j *fleet.Job)
	}{
		{
			name: "mint", state: fleet.JobQueued,
			run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) int {
				mustOK(t, f.Drain("a"))
				return submit(t, f, qrm.Request{DeadlineMs: 60000})
			},
		},
		{
			name: "claim, done", state: fleet.JobDone,
			run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) int {
				id := submit(t, f, qrm.Request{})
				wait(t, f, id)
				return id
			},
		},
		{
			// The fleet keeps the submitter's circuit while the job is
			// live: corrupting it after admission makes a healthy device's
			// compile fail. The job is sealed with the corrupted name, so
			// the name is put back on the copy compared.
			name: "compile failure", state: fleet.JobFailed,
			run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) int {
				mustOK(t, f.Drain("a"))
				id := submit(t, f, qrm.Request{})
				j, _ := f.Job(id)
				j.Request.Circuit.Gates[0].Name = "bogus"
				mustOK(t, f.Resume("a"))
				wait(t, f, id)
				return id
			},
			submitted: func(j *fleet.Job) { j.Request.Circuit.Gates[0].Name = circuit.OpH },
		},
		{
			name: "execute failure", state: fleet.JobFailed,
			run: func(t *testing.T, f *fleet.Scheduler, qpu *device.QPU) int {
				qpu.InjectFaults(1)
				id := submit(t, f, qrm.Request{})
				wait(t, f, id)
				return id
			},
		},
		{
			name: "cancel queued", state: fleet.JobCancelled,
			run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) int {
				mustOK(t, f.Drain("a"))
				id := submit(t, f, qrm.Request{})
				mustOK(t, f.Cancel(id))
				return id
			},
		},
		{
			name: "cancel routed", state: fleet.JobCancelled,
			run: func(t *testing.T, f *fleet.Scheduler, qpu *device.QPU) int {
				qpu.SetExecLatency(200 * time.Millisecond)
				id := submit(t, f, qrm.Request{})
				onDevice(t, f, id)
				mustOK(t, f.Cancel(id))
				wait(t, f, id)
				return id
			},
		},
		{
			name: "shed", state: fleet.JobFailed,
			run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) int {
				mustOK(t, f.Drain("a"))
				f.SetAdmission(tenant.Admission{HighWater: 1})
				id := submit(t, f, qrm.Request{})
				if _, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(2), Shots: 5, Priority: 1}, fleet.SubmitOptions{}); err != nil {
					t.Fatal(err)
				}
				return id
			},
		},
		{
			name: "deadline expiry", state: fleet.JobFailed,
			run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) int {
				mustOK(t, f.Drain("a"))
				id := submit(t, f, qrm.Request{DeadlineMs: 1})
				time.Sleep(5 * time.Millisecond)
				mustOK(t, f.Resume("a"))
				wait(t, f, id)
				return id
			},
		},
		{
			// The device fails under the run: the job goes back to the
			// queue, and runs to done once the device recovers.
			name: "failover migrated", state: fleet.JobDone,
			run: func(t *testing.T, f *fleet.Scheduler, qpu *device.QPU) int {
				qpu.SetExecLatency(200 * time.Millisecond)
				qpu.InjectFaults(1)
				id := submit(t, f, qrm.Request{})
				onDevice(t, f, id)
				mustOK(t, f.Fail("a"))
				until(t, "the failover", func() bool { j, _ := f.Job(id); return j.Migrations == 1 })
				qpu.SetExecLatency(0)
				mustOK(t, f.Recover("a"))
				wait(t, f, id)
				return id
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, _, err := Open(dir, Options{Sync: SyncOff})
			mustOK(t, err)
			qpu, err := device.New(device.Config{Name: "a", Rows: 2, Cols: 2, Seed: 1, DigitalTwin: true})
			mustOK(t, err)
			f := fleet.New(fleet.PolicyBestFidelity, nil)
			defer f.Stop()
			mustOK(t, f.AddDevice("a", qdmi.NewDevice(qpu, nil), 1))
			f.AttachStore(st)
			f.AdvanceTo(1) // a recorded submit_time is not zero
			id := tc.run(t, f, qpu)
			if tc.submitted != nil {
				// submitted writes the copy Job returns: once the job is
				// sealed that is a private decoded copy, not the request
				// its worker may still be encoding into the record.
				until(t, "the seal", func() bool { v, _ := f.View(id, true, nil); return v.Live == nil })
			}
			live, err := f.Job(id)
			mustOK(t, err)
			if live.Status != tc.state {
				t.Fatalf("job %d is %s (%q), want %s", id, live.Status, live.Error, tc.state)
			}
			if tc.submitted != nil {
				tc.submitted(live)
			}
			sameJournaledFields(t, tc.name, reopen(t, dir, st, f)[id], live)
		})
	}
}

// TestUpdateRoundTripRestore: Restore's moves are updates too — a job
// re-queued "recovered", one failed interrupted because its deadline passed
// while the process was down, and one whose record had no submission
// instant, which Restore stamps and the update carries. A second Close +
// Open folds each back as the restored scheduler holds it.
func TestUpdateRoundTripRestore(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Sync: SyncOff})
	mustOK(t, err)
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	mustOK(t, f.AddDevice("a", qdmi.NewDevice(device.NewTwin20Q(3), nil), 1))
	mustOK(t, f.Drain("a"))
	f.AttachStore(st)
	requeued, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(2), Shots: 5}, fleet.SubmitOptions{IdemKey: "k"})
	mustOK(t, err)
	expired, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(2), Shots: 5, DeadlineMs: 1}, fleet.SubmitOptions{})
	mustOK(t, err)
	const unstamped = 100
	st.JournalFleetJob(&fleet.Job{ID: unstamped, Status: fleet.JobRouted, Device: "a", Request: qrm.Request{Circuit: circuit.GHZ(2), Shots: 5}})
	st.Abandon() // kill -9
	f.Stop()
	st.Close()
	time.Sleep(5 * time.Millisecond) // the deadline passes while the process is down

	st2, rec, err := Open(dir, Options{Sync: SyncOff})
	mustOK(t, err)
	f2 := fleet.New(fleet.PolicyBestFidelity, nil) // no devices: the re-queued jobs wait
	f2.AttachStore(st2)
	rs, err := f2.Restore(rec.FleetJobs)
	mustOK(t, err)
	if rs.Requeued != 2 || rs.Expired != 1 {
		t.Fatalf("restore = %+v, want 2 re-queued and 1 expired", rs)
	}
	live := map[int]*fleet.Job{}
	for _, id := range []int{requeued, expired, unstamped} {
		live[id], err = f2.Job(id)
		mustOK(t, err)
	}
	if j := live[unstamped]; j.SubmitUnixMs == 0 || !j.Recovered || j.Device != "" {
		t.Fatalf("unstamped job restored as %+v", j)
	}
	if j := live[expired]; j.Status != fleet.JobFailed || j.Error != qrm.ErrInterruptedMsg {
		t.Fatalf("expired job restored as %s (%q)", j.Status, j.Error)
	}
	folded := reopen(t, dir, st2, f2)
	for id, j := range live {
		sameJournaledFields(t, "restore", folded[id], j)
	}
}
