package mqss

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// newRunningStack serves a one-device twin fleet with the given pool size.
func newRunningStack(t *testing.T, seed int64, workers int) (*fleet.Scheduler, *httptest.Server) {
	t.Helper()
	f := oneDeviceFleet(t, device.NewTwin20Q(seed), nil, workers)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)
	return f, srv
}

func TestWaitJobUnblocksOnStop(t *testing.T) {
	m := qrm.NewManager(qdmi.NewDevice(device.NewTwin20Q(46), nil))
	if err := m.Start(1); err != nil {
		t.Fatal(err)
	}
	// Flood the single worker so at least one job is still queued when we
	// stop, then verify a blocked Wait returns an error instead of
	// hanging.
	var hs []qrm.Handle
	for i := 0; i < 30; i++ {
		h, err := m.Submit(qrm.Request{Circuit: circuit.GHZ(4), Shots: 50}, nil)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	waited := make(chan error, len(hs))
	for _, h := range hs {
		go func(h qrm.Handle) {
			_, err := h.Wait(context.Background())
			waited <- err
		}(h)
	}
	m.Stop()
	for range hs {
		<-waited // must all return, error or not — a hang fails the test timeout
	}
}

func TestSubmitAgainstRunningPipeline(t *testing.T) {
	_, srv := newRunningStack(t, 41, 2)
	c := NewRemoteClient(srv.URL, srv.Client())
	job, err := c.Run(context.Background(), qrm.Request{Circuit: circuit.GHZ(4), Shots: 50, User: "async"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != qrm.StatusDone {
		t.Fatalf("status = %s (%s)", job.Status, job.Error)
	}
}

func TestBatchStreamDeliversPerJobCompletions(t *testing.T) {
	_, srv := newRunningStack(t, 42, 4)
	c := NewRemoteClient(srv.URL, srv.Client())
	reqs := make([]qrm.Request, 8)
	for i := range reqs {
		reqs[i] = qrm.Request{Circuit: circuit.GHZ(2 + i%3), Shots: 10, User: "stream"}
	}
	var streamed int32
	jobs, err := c.StreamBatch(context.Background(), reqs, func(j *qrm.Job) {
		atomic.AddInt32(&streamed, 1)
		if j.Status != qrm.StatusDone {
			t.Errorf("streamed job %d status %s", j.ID, j.Status)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 || streamed != 8 {
		t.Fatalf("jobs = %d, streamed = %d, want 8/8", len(jobs), streamed)
	}
	// Returned order is submission order even though delivery was
	// completion-ordered.
	for i := 1; i < len(jobs); i++ {
		if jobs[i].ID <= jobs[i-1].ID {
			t.Errorf("jobs not in submission order: %d after %d", jobs[i].ID, jobs[i-1].ID)
		}
	}
	for _, j := range jobs {
		if j.Request.BatchID == 0 {
			t.Error("batch ID missing on streamed job")
		}
	}
}

func TestBatchStreamFalseValuesDisableStreaming(t *testing.T) {
	_, srv := newRunningStack(t, 47, 2)
	body := `[{"circuit":{"num_qubits":2,"gates":[{"name":"h","qubits":[0]}]},"shots":5}]`
	for _, v := range []string{"0", "false"} {
		resp, err := srv.Client().Post(srv.URL+"/api/v1/jobs/batch?stream="+v,
			"application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var created struct {
			BatchID int   `json:"batch_id"`
			JobIDs  []int `json:"job_ids"`
		}
		err = json.NewDecoder(resp.Body).Decode(&created)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("stream=%s: %v", v, err)
		}
		if created.BatchID == 0 || len(created.JobIDs) != 1 {
			t.Errorf("stream=%s: plain batch response = %+v", v, created)
		}
	}
}

// TestBatchEndpointConcurrentClients is the mqss half of the -race
// workout: many clients hammer the batch endpoint of one running pipeline.
func TestBatchEndpointConcurrentClients(t *testing.T) {
	f, srv := newRunningStack(t, 44, 8)
	const clients = 6
	const perBatch = 5
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewRemoteClient(srv.URL, srv.Client())
			reqs := make([]qrm.Request, perBatch)
			for k := range reqs {
				reqs[k] = qrm.Request{Circuit: circuit.GHZ(2 + (i+k)%3), Shots: 5, User: "swarm"}
			}
			jobs, err := c.RunBatch(context.Background(), reqs)
			if err != nil {
				errs <- err
				return
			}
			for _, j := range jobs {
				if j.Status != qrm.StatusDone {
					t.Errorf("client %d job %d = %s (%s)", i, j.ID, j.Status, j.Error)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := f.Metrics()
	if snap.Completed != clients*perBatch {
		t.Errorf("completed = %d, want %d", snap.Completed, clients*perBatch)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, srv := newRunningStack(t, 45, 2)
	c := NewRemoteClient(srv.URL, srv.Client())
	if _, err := c.Run(context.Background(), qrm.Request{Circuit: circuit.GHZ(3), Shots: 10, User: "m"}); err != nil {
		t.Fatal(err)
	}
	fm, err := c.FleetMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fm.Completed != 1 || fm.Submitted != 1 || len(fm.Devices) != 1 {
		t.Fatalf("fleet metrics = %+v", fm)
	}
	snap := fm.Devices[0].QRM
	if snap.Workers != 2 || snap.Completed != 1 || snap.Submitted != 1 {
		t.Errorf("device pipeline metrics = %+v", snap)
	}
	if snap.E2EMs.Count != 1 {
		t.Errorf("e2e histogram count = %d, want 1", snap.E2EMs.Count)
	}
}
