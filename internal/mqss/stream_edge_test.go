package mqss

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// Streaming edge cases: a client that walks away mid-NDJSON-stream must not
// wedge the server or lose the batch, and a server-side job failure must
// surface through StreamBatch as a failed record, not a broken stream.

func newPacedStack(t *testing.T, latency time.Duration, workers int) (*fleet.Scheduler, *device.QPU, *httptest.Server) {
	t.Helper()
	qpu := device.NewTwin20Q(7)
	if latency > 0 {
		qpu.SetExecLatency(latency)
	}
	f := oneDeviceFleet(t, qpu, nil, workers)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)
	return f, qpu, srv
}

func batchBody(t *testing.T, n, shots int) *bytes.Reader {
	t.Helper()
	reqs := make([]qrm.Request, n)
	for i := range reqs {
		reqs[i] = qrm.Request{Circuit: circuit.GHZ(3), Shots: shots, User: "edge"}
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(body)
}

func TestStreamBatchClientDisconnectMidStream(t *testing.T) {
	const jobs = 12
	f, _, srv := newPacedStack(t, 5*time.Millisecond, 2)

	resp, err := http.Post(srv.URL+"/api/v1/jobs/batch?stream=1", "application/json",
		batchBody(t, jobs, 5))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Read the header line and exactly one completed job, then hang up with
	// most of the batch still streaming.
	br := bufio.NewReader(resp.Body)
	header, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading header: %v", err)
	}
	if !strings.Contains(header, "job_ids") {
		t.Fatalf("header line: %s", header)
	}
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first job: %v", err)
	}
	resp.Body.Close() // abrupt disconnect

	// The server must keep executing the batch and settle every job; a
	// wedged handler would leave the queue non-empty forever.
	done := make(chan struct{})
	go func() {
		f.WaitSettled()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not settle the batch after client disconnect")
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

func TestStreamBatchSurfacesServerSideJobFailure(t *testing.T) {
	_, qpu, srv := newPacedStack(t, 0, 1)
	// One worker executes in submission order; fault exactly the first
	// execution so precisely one job fails server-side.
	qpu.InjectFaults(1)

	client := NewRemoteClient(srv.URL, nil)
	reqs := make([]qrm.Request, 3)
	for i := range reqs {
		reqs[i] = qrm.Request{Circuit: circuit.GHZ(3), Shots: 5, User: "edge"}
	}
	var streamed []*qrm.Job
	jobs, err := client.StreamBatch(context.Background(), reqs, func(j *qrm.Job) { streamed = append(streamed, j) })
	if err != nil {
		t.Fatalf("StreamBatch with a failing job should still deliver the batch: %v", err)
	}
	if len(jobs) != 3 || len(streamed) != 3 {
		t.Fatalf("delivered %d jobs, streamed %d, want 3/3", len(jobs), len(streamed))
	}
	failed, done := 0, 0
	for _, j := range jobs {
		switch j.Status {
		case qrm.StatusFailed:
			failed++
			if j.Error == "" || !strings.Contains(j.Error, "fault") {
				t.Fatalf("failed job without a usable error: %q", j.Error)
			}
			if len(j.Counts) != 0 {
				t.Fatalf("failed job carries counts: %v", j.Counts)
			}
		case qrm.StatusDone:
			done++
			if len(j.Counts) == 0 {
				t.Fatalf("done job %d has no counts", j.ID)
			}
		default:
			t.Fatalf("job %d in non-terminal state %s", j.ID, j.Status)
		}
	}
	if failed != 1 || done != 2 {
		t.Fatalf("failed=%d done=%d, want 1 failed / 2 done", failed, done)
	}
}

func TestStreamBatchFleetSurfacesFailureEnvelope(t *testing.T) {
	// Fleet-mode variant: a genuine job failure on a healthy device arrives
	// through the routed stream as a failed fleet record with the device-
	// level result attached.
	qpu := device.NewTwin20Q(9)
	dev := qdmi.NewDevice(qpu, nil)
	f := newTestFleet(t, map[string]*qdmi.Device{"solo": dev}, 1)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)

	qpu.InjectFaults(1)
	client := NewRemoteClient(srv.URL, nil)
	reqs := []qrm.Request{
		{Circuit: circuit.GHZ(3), Shots: 5, User: "edge"},
		{Circuit: circuit.GHZ(3), Shots: 5, User: "edge"},
	}
	jobs, err := client.StreamBatchRouted(context.Background(), reqs, RouteOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, j := range jobs {
		if j.Status == "failed" {
			failed++
			if j.Error == "" || j.Result == nil {
				t.Fatalf("fleet failure without error/result: %+v", j)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("failed=%d, want 1", failed)
	}
}
