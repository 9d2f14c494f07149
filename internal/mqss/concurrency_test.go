package mqss

import (
	"context"
	"net/http/httptest"
	"sync"
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
	job, err := c.Run(context.Background(), SubmitRequest{Circuit: circuit.GHZ(4), Shots: 50, User: "async"})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("state = %s (%v)", job.State, job.Error)
	}
}

// TestBatchEndpointConcurrentClients is the mqss half of the -race
// workout: eight remote clients each Run a string of jobs against one
// running pipeline at once.
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
	if snap.Workers != 2 || snap.Completed != 1 || snap.Submitted != 1 {
		t.Errorf("device pipeline metrics = %+v", snap)
	}
	if snap.E2EMs.Count != 1 {
		t.Errorf("e2e histogram count = %d, want 1", snap.E2EMs.Count)
	}
}
