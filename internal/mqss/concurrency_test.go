package mqss

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qrm"
)

// newRunningStack serves a one-device twin fleet with the given pool size.
func newRunningStack(t *testing.T, seed int64, workers int) (*fleet.Scheduler, *httptest.Server) {
	t.Helper()
	f := oneDeviceFleet(t, device.NewTwin20Q(seed), workers)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)
	return f, srv
}

func TestWaitJobUnblocksOnStop(t *testing.T) {
	qpu := device.NewTwin20Q(46)
	qpu.SetExecLatency(2 * time.Millisecond)
	f := oneDeviceFleet(t, qpu, 1)
	// Flood the single paced worker so jobs are still queued when we stop,
	// then verify a blocked Wait returns instead of hanging: Stop fails what
	// is still queued.
	var ids []int
	for i := 0; i < 30; i++ {
		id, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(4), Shots: 50}, fleet.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	waited := make(chan *fleet.Job, len(ids))
	for _, id := range ids {
		go func(id int) {
			j, _ := f.WaitContext(context.Background(), id)
			waited <- j
		}(id)
	}
	f.Stop()
	failed := 0
	for range ids {
		// Must all return — a hang fails the test timeout.
		if j := <-waited; j.Status == fleet.JobFailed {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no job was still queued at Stop; the test did not exercise the release path")
	}
}

func TestSubmitAgainstRunningPipeline(t *testing.T) {
	_, srv := newRunningStack(t, 41, 2)
	c := NewRemoteClient(srv.URL, srv.Client())
	job, err := c.Run(context.Background(), SubmitRequest{Circuit: circuit.GHZ(4), Shots: 50, User: "async"})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("state = %s (%v)", job.State, job.Error)
	}
}

// TestBatchEndpointConcurrentClients is the mqss half of the -race
// workout: eight clients, half remote and half in-process, each Run a
// string of jobs against one running pipeline at once.
func TestBatchEndpointConcurrentClients(t *testing.T) {
	f, srv := newRunningStack(t, 44, 8)
	const clients = 8
	const perClient = 5
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewRemoteClient(srv.URL, srv.Client())
			if i%2 == 1 {
				c = NewLocalClient(srv.Config.Handler)
			}
			for k := 0; k < perClient; k++ {
				j, err := c.Run(context.Background(), SubmitRequest{Circuit: circuit.GHZ(2 + (i+k)%3), Shots: 5, User: "swarm"})
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				if j.State != StateDone {
					t.Errorf("client %d job %s = %s (%v)", i, j.ID, j.State, j.Error)
				}
			}
		}(i)
	}
	wg.Wait()
	snap := f.Metrics()
	if snap.Completed != clients*perClient {
		t.Errorf("completed = %d, want %d", snap.Completed, clients*perClient)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, srv := newRunningStack(t, 45, 2)
	c := NewRemoteClient(srv.URL, srv.Client())
	if _, err := c.Run(context.Background(), SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "m"}); err != nil {
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
	if snap.Workers != 2 || snap.Completed != 1 || fm.Devices[0].Routed != 1 {
		t.Errorf("device pipeline metrics = %+v", snap)
	}
	if snap.E2EMs.Count != 1 {
		t.Errorf("e2e histogram count = %d, want 1", snap.E2EMs.Count)
	}
}
