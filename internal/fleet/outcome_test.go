package fleet_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/mqss"
	"repro/internal/qdmi"
	"repro/internal/qrm"
	"repro/internal/tenant"
)

// nopStore is a JobStore that keeps nothing: the claim hooks need one to wrap.
type nopStore struct{}

func (nopStore) JournalFleetJob(*fleet.Job) uint64 { return 0 }
func (nopStore) WaitDurable(uint64)                {}

// resultFields are the v2 record's fields a device run fills in.
var resultFields = []string{"compiled_gates", "cz_count", "layout", "compile_stats", "counts", "duration_us", "submit_time", "end_time"}

// TestOutcomeFields is which of resultFields the v2 record of a job carries
// after each way a claim (or no claim) can end. Job 1 is the subject of
// every row, on a one-device fleet whose clock reads day 1, so a recorded
// submit_time is not zero.
func TestOutcomeFields(t *testing.T) {
	compiled := []string{"compiled_gates", "cz_count", "layout", "compile_stats", "submit_time", "end_time"}
	for _, tc := range []struct {
		name string
		// run submits job 1 and drives it to the outcome.
		run       func(t *testing.T, f *fleet.Scheduler, qpu *device.QPU)
		state     string
		code      string // the error envelope's code, "" for none
		fields    []string
		executed  bool // the job's trace has an execute span
		migration int
	}{
		{
			name:   "done",
			run:    func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) { wait(t, f, submit(t, f, 0)) },
			state:  "done",
			fields: resultFields, executed: true,
		},
		{
			// The fleet keeps the submitter's circuit: corrupting it after
			// admission is how a healthy device's compile is made to fail.
			name: "compile failure",
			run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) {
				must(t, f.Drain("a"))
				id := submit(t, f, 0)
				j, _ := f.Job(id)
				j.Request.Circuit.Gates[0].Name = "bogus"
				must(t, f.Resume("a"))
				wait(t, f, id)
			},
			state: "failed", code: mqss.CodeExecutionFailed,
			fields: []string{"submit_time", "end_time"},
		},
		{
			name: "execute failure",
			run: func(t *testing.T, f *fleet.Scheduler, qpu *device.QPU) {
				qpu.InjectFaults(1)
				wait(t, f, submit(t, f, 0))
			},
			state: "failed", code: mqss.CodeExecutionFailed,
			fields: compiled, executed: true,
		},
		{
			name: "cancel between compile and QPU",
			run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) {
				f.AttachStore(f.CancelAtClaim(nopStore{}, 1))
				wait(t, f, submit(t, f, 0))
			},
			state: "cancelled",
		},
		{
			// The only device fails under the run: the job is queued again,
			// with nothing of the failed leg.
			name: "failover re-queue",
			run: func(t *testing.T, f *fleet.Scheduler, qpu *device.QPU) {
				f.AttachStore(f.FailAtClaim(nopStore{}, 1))
				qpu.InjectFaults(1)
				submit(t, f, 0)
				deadline := time.Now().Add(10 * time.Second)
				for j, _ := f.Job(1); j.Migrations == 0; j, _ = f.Job(1) {
					if time.Now().After(deadline) {
						t.Fatalf("job 1 never failed over: %+v", j)
					}
					time.Sleep(time.Millisecond)
				}
			},
			state: "queued", executed: true, migration: 1,
		},
		{
			name: "shed",
			run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) {
				must(t, f.Drain("a"))
				f.SetAdmission(tenant.Admission{HighWater: 1})
				submit(t, f, 0)
				submit(t, f, 1) // outranks job 1, which is shed
			},
			state: "failed", code: mqss.CodeShed,
		},
		{
			name: "expired",
			run: func(t *testing.T, f *fleet.Scheduler, _ *device.QPU) {
				must(t, f.Drain("a"))
				id, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(2), Shots: 5, DeadlineMs: 1}, fleet.SubmitOptions{})
				must(t, err)
				time.Sleep(5 * time.Millisecond)
				must(t, f.Resume("a"))
				wait(t, f, id)
			},
			state: "failed", code: mqss.CodeDeadlineExceeded,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qpu, err := device.New(device.Config{Name: "a", Rows: 2, Cols: 2, Seed: 1, DigitalTwin: true})
			must(t, err)
			f := fleet.New(fleet.PolicyBestFidelity, nil)
			t.Cleanup(f.Stop)
			must(t, f.AddDevice("a", qdmi.NewDevice(qpu, nil), 1))
			f.AdvanceTo(1)
			tc.run(t, f, qpu)

			srv := httptest.NewServer(mqss.NewFleetServer(f))
			t.Cleanup(srv.Close)
			resp, err := http.Get(srv.URL + "/api/v2/jobs/j-1")
			must(t, err)
			defer resp.Body.Close()
			var rec map[string]json.RawMessage
			must(t, json.NewDecoder(resp.Body).Decode(&rec))
			var got []string
			for _, k := range resultFields {
				if v, ok := rec[k]; ok && string(v) != "0" {
					got = append(got, k)
				}
			}
			if !slices.Equal(got, tc.fields) {
				t.Errorf("result fields %v, want %v", got, tc.fields)
			}
			var state string
			var e struct{ Code string }
			var migrations int
			json.Unmarshal(rec["state"], &state)
			json.Unmarshal(rec["error"], &e)
			json.Unmarshal(rec["migrations"], &migrations)
			if state != tc.state || e.Code != tc.code || migrations != tc.migration {
				t.Errorf("state %s, error code %q, migrations %d; want %s, %q, %d", state, e.Code, migrations, tc.state, tc.code, tc.migration)
			}
			executed := false
			for _, leg := range f.Trace(1).Snapshot().Root.Children {
				for _, sp := range leg.Children {
					executed = executed || sp.Name == "execute"
				}
			}
			if executed != tc.executed {
				t.Errorf("execute span %v, want %v", executed, tc.executed)
			}
		})
	}
}

func submit(t *testing.T, f *fleet.Scheduler, priority int) int {
	t.Helper()
	id, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(2), Shots: 5, Priority: priority}, fleet.SubmitOptions{})
	must(t, err)
	return id
}

func wait(t *testing.T, f *fleet.Scheduler, id int) {
	t.Helper()
	if _, err := f.Wait(id); err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
