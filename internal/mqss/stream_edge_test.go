package mqss

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
)

// Streaming edge cases: a client that walks away mid-NDJSON-stream must not
// wedge the server or lose its jobs, and a server-side job failure must
// reach the caller as a failed record with its error envelope, not as a
// broken call.

func newPacedStack(t *testing.T, latency time.Duration, workers int) (*fleet.Scheduler, *device.QPU, *httptest.Server) {
	t.Helper()
	qpu := device.NewTwin20Q(7)
	if latency > 0 {
		qpu.SetExecLatency(latency)
	}
	f := oneDeviceFleet(t, qpu, workers)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)
	return f, qpu, srv
}

func TestWatchClientDisconnectMidStream(t *testing.T) {
	const jobs = 12
	f, _, srv := newPacedStack(t, 5*time.Millisecond, 2)

	client := NewRemoteClient(srv.URL, srv.Client())
	var last *JobHandle
	for i := 0; i < jobs; i++ {
		h, err := client.Submit(context.Background(), SubmitRequest{Circuit: circuit.GHZ(3), Shots: 5, User: "edge"}, "")
		if err != nil {
			t.Fatal(err)
		}
		last = h
	}
	// Watch the job at the back of the queue, read exactly the opening
	// snapshot line, then hang up with the job (and most of the queue)
	// still in flight.
	resp, err := http.Get(srv.URL + "/api/v2/jobs/" + last.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	first, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("reading snapshot event: %v", err)
	}
	if !strings.Contains(first, `"reason":"snapshot"`) || strings.Contains(first, `"state":"done"`) {
		t.Fatalf("opening event: %s", first)
	}
	resp.Body.Close() // abrupt disconnect

	// The server must keep executing and settle every job; a wedged handler
	// would leave the queue non-empty forever.
	done := make(chan struct{})
	go func() {
		f.WaitSettled()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not settle the jobs after client disconnect")
	}
	snap := f.Metrics()
	if snap.Completed != jobs {
		t.Fatalf("completed %d of %d after disconnect", snap.Completed, jobs)
	}
	if snap.Failed != 0 {
		t.Fatalf("%d jobs failed after disconnect", snap.Failed)
	}
	// The server must still answer new requests (the handler goroutine for
	// the dead stream exits instead of holding anything).
	r2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after disconnect: %d", r2.StatusCode)
	}
}

// TestRunSurfacesJobFailureEnvelope: a genuine job failure on a healthy
// device comes back from Run as a failed record carrying the structured
// envelope — same on the HPC and the REST path — and the jobs around it
// still finish.
func TestRunSurfacesJobFailureEnvelope(t *testing.T) {
	for _, path := range []AccessPath{PathHPC, PathREST} {
		t.Run(string(path), func(t *testing.T) {
			f, qpu, srv := newPacedStack(t, 0, 1)
			client := NewRemoteClient(srv.URL, srv.Client())
			if path == PathHPC {
				client = NewLocalClient(NewFleetServer(f))
			}
			// One worker executes in submission order; fault exactly the
			// first execution so precisely one job fails.
			qpu.InjectFaults(1)
			failed, done := 0, 0
			for i := 0; i < 3; i++ {
				j, err := client.Run(context.Background(), SubmitRequest{Circuit: circuit.GHZ(3), Shots: 5, User: "edge"})
				if err != nil {
					t.Fatalf("Run of a failing job should return its record: %v", err)
				}
				switch j.State {
				case StateFailed:
					failed++
					if j.Error == nil || j.Error.Code != CodeExecutionFailed || j.Error.Retryable ||
						!strings.Contains(j.Error.Message, "fault") {
						t.Fatalf("failed job without a usable envelope: %+v", j.Error)
					}
					if len(j.Counts) != 0 {
						t.Fatalf("failed job carries counts: %v", j.Counts)
					}
				case StateDone:
					done++
					if len(j.Counts) == 0 {
						t.Fatalf("done job %s has no counts", j.ID)
					}
				default:
					t.Fatalf("job %s in non-terminal state %s", j.ID, j.State)
				}
			}
			if failed != 1 || done != 2 {
				t.Fatalf("failed=%d done=%d, want 1 failed / 2 done", failed, done)
			}
		})
	}
}
