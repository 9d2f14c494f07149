package mqss

import (
	"bufio"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
)

// oneDeviceFleet builds the single-QPU deployment shape: a fleet whose only
// device is qpu, registered under its own name. The pool stops with the
// test.
func oneDeviceFleet(t *testing.T, qpu *device.QPU, workers int) *fleet.Scheduler {
	t.Helper()
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	if err := f.AddDevice(qpu.Name(), qdmi.NewDevice(qpu, nil), workers); err != nil {
		t.Fatal(err)
	}
	stopAndAuditAtCleanup(t, f)
	return f
}

// newStack builds a full twin-device stack. One worker: jobs run in
// submission order, so twin counts are deterministic.
func newStack(t *testing.T, seed int64) *fleet.Scheduler {
	t.Helper()
	return oneDeviceFleet(t, device.NewTwin20Q(seed), 1)
}

func TestLocalClientPath(t *testing.T) {
	c := NewLocalClient(NewFleetServer(newStack(t, 1)))
	if c.Path() != PathHPC {
		t.Errorf("path = %s, want hpc", c.Path())
	}
	job, err := c.Run(context.Background(), SubmitRequest{Circuit: circuit.GHZ(4), Shots: 100, User: "local"})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("state = %s (%v)", job.State, job.Error)
	}
	if len(job.Counts) != 2 {
		t.Errorf("twin GHZ outcomes = %d", len(job.Counts))
	}
}

// TestLocalClientGoesThroughTheHandler: the in-process client reaches the
// scheduler through the server's v2 handler, so the tenant token bucket
// and the request-id trace stamp apply to it as to a REST client, and its
// watch streams the events endpoint.
func TestLocalClientGoesThroughTheHandler(t *testing.T) {
	qpu := device.NewTwin20Q(12)
	qpu.SetExecLatency(20 * time.Millisecond) // the watch opens before the job ends
	server := NewFleetServer(oneDeviceFleet(t, qpu, 1))
	server.SetTenantLimits(0.001, 1) // one submission, then throttled for ~17 minutes
	c := NewLocalClient(server)
	ctx := context.Background()
	req := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "hpc"}

	h, err := c.Submit(ctx, req, "")
	if err != nil {
		t.Fatal(err)
	}
	var events []JobEvent
	job, err := h.Watch(ctx, func(ev JobEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone || len(events) < 2 || events[0].Reason != "snapshot" || !events[len(events)-1].State.Terminal() {
		t.Fatalf("local watch: job %s, events %+v", job.State, events)
	}
	jt, err := c.V2JobTrace(ctx, h.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jt.Root == nil || !strings.HasPrefix(jt.Root.Attrs["request_id"], "req-") {
		t.Errorf("local job's trace root lacks a request_id: %+v", jt.Root)
	}

	// Past the burst the handler answers 429; the client backs off for the
	// Retry-After, which outlasts this deadline.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := c.Submit(short, req, ""); err == nil {
		t.Fatal("a local submission past the tenant's burst was admitted")
	}
	ts, err := c.TenantsStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Tenants) != 1 || ts.Tenants[0].Allowed != 1 || ts.Tenants[0].Throttled != 1 {
		t.Errorf("tenants after one admitted and one throttled local submission: %+v", ts.Tenants)
	}
}

// TestLocalStreamCloseEndsTheHandler: closing an in-process watch stream's
// body ends the handler's request context, so the handler returns and
// closes its job watch, as a disconnect does over a socket.
func TestLocalStreamCloseEndsTheHandler(t *testing.T) {
	qpu := device.NewTwin20Q(13)
	f := oneDeviceFleet(t, qpu, 1)
	if err := f.Drain(qpu.Name()); err != nil { // the job stays queued
		t.Fatal(err)
	}
	c := NewLocalClient(NewFleetServer(f))
	h, err := c.Submit(context.Background(), SubmitRequest{Circuit: circuit.GHZ(3), Shots: 5, User: "hpc"}, "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.httpc.Get(c.baseURL + pathV2Jobs + "/" + h.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	first, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(first, `"reason":"snapshot"`) {
		t.Fatalf("opening event %q, %v", first, err)
	}
	if n := f.EventStats().Watches; n != 1 {
		t.Fatalf("%d subscribers while the stream is open, want 1", n)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for f.EventStats().Watches != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the watch handler still holds its subscription after the body closed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRemoteClientPath(t *testing.T) {
	srv := httptest.NewServer(NewFleetServer(newStack(t, 2)))
	defer srv.Close()
	c := NewRemoteClient(srv.URL, srv.Client())
	if c.Path() != PathREST {
		t.Errorf("path = %s, want rest", c.Path())
	}
	job, err := c.Run(context.Background(), SubmitRequest{Circuit: circuit.GHZ(3), Shots: 50, User: "remote"})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("state = %s (%v)", job.State, job.Error)
	}
	total := 0
	for _, n := range job.Counts {
		total += n
	}
	if total != 50 {
		t.Errorf("shots = %d, want 50", total)
	}
	// Fetch the same job by ID.
	again, err := c.V2Job(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != job.ID || again.State != StateDone {
		t.Errorf("refetched job = %+v", again)
	}
}

func TestBothPathsProduceSameDistribution(t *testing.T) {
	// The same job via HPC path and REST path on identical twin devices
	// must produce identical histograms up to sampling noise — the "no
	// code modifications" promise of the client.
	srv := httptest.NewServer(NewFleetServer(newStack(t, 4)))
	defer srv.Close()

	local := NewLocalClient(NewFleetServer(newStack(t, 4)))
	remote := NewRemoteClient(srv.URL, srv.Client())
	req := SubmitRequest{Circuit: circuit.GHZ(5), Shots: 2000, User: "x"}
	jl, err := local.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := remote.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	fl := float64(jl.Counts[0]) / 2000
	fr := float64(jr.Counts[0]) / 2000
	if math.Abs(fl-0.5) > 0.05 || math.Abs(fr-0.5) > 0.05 {
		t.Errorf("GHZ P(0) local %.3f remote %.3f, want ~0.5 each", fl, fr)
	}
}

// TestBothPathsDedup: the Idempotency-Key contract is the scheduler's, so
// the HPC path and the REST path honour it alike — the same key twice is
// one job, and the second handle says it was replayed.
func TestBothPathsDedup(t *testing.T) {
	for _, name := range []string{"local", "remote"} {
		f := newStack(t, 5)
		c := NewLocalClient(NewFleetServer(f))
		if name == "remote" {
			srv := httptest.NewServer(NewFleetServer(f))
			defer srv.Close()
			c = NewRemoteClient(srv.URL, srv.Client())
		}
		ctx := context.Background()
		req := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 20, User: "dedup"}
		first, err := c.Submit(ctx, req, "same-key")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := c.Submit(ctx, req, "same-key")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if first.Replayed || !second.Replayed || second.ID != first.ID {
			t.Errorf("%s: first %s replayed %v, second %s replayed %v; want one job, second replayed",
				name, first.ID, first.Replayed, second.ID, second.Replayed)
		}
		other, err := c.Submit(ctx, req, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if other.Replayed || other.ID == first.ID {
			t.Errorf("%s: keyless submission deduped onto %s", name, first.ID)
		}
		if n := f.Metrics().Submitted; n != 2 {
			t.Errorf("%s: scheduler saw %d submissions, want 2", name, n)
		}
	}
}

func TestRemoteDeviceInfo(t *testing.T) {
	server := NewFleetServer(newStack(t, 8))
	srv := httptest.NewServer(server)
	defer srv.Close()
	c := NewRemoteClient(srv.URL, srv.Client())
	info, err := c.Device(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Properties.NumQubits != 20 {
		t.Errorf("device qubits = %d", info.Properties.NumQubits)
	}
	if info.Fidelity1Q < 0.99 {
		t.Errorf("fidelity_1q = %g", info.Fidelity1Q)
	}
	if len(info.Properties.CouplingMap) != 20 {
		t.Error("coupling map missing")
	}
	// The in-process client reads the same route through the same server.
	local, err := NewLocalClient(server).Device(context.Background())
	if err != nil {
		t.Fatalf("local Device(): %v", err)
	}
	if !reflect.DeepEqual(local, info) {
		t.Errorf("local Device() %+v, remote %+v", local, info)
	}
	// Against a larger roster Device() refuses to guess and names the devices.
	multi := httptest.NewServer(NewFleetServer(newTestFleet(t, map[string]*qdmi.Device{
		"alpha": twinDev(t, "alpha", 4, 5, 1),
		"beta":  twinDev(t, "beta", 3, 3, 2),
	}, 1)))
	defer multi.Close()
	_, err = NewRemoteClient(multi.URL, multi.Client()).Device(context.Background())
	if err == nil || !strings.Contains(err.Error(), "alpha") || !strings.Contains(err.Error(), "beta") {
		t.Errorf("Device() against two backends: err = %v, want the roster named", err)
	}
}

func TestServerErrorPaths(t *testing.T) {
	srv := httptest.NewServer(NewFleetServer(newStack(t, 9)))
	defer srv.Close()
	c := srv.Client()

	// A v1 submit — malformed or not — is gone, not a 400.
	resp, err := c.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("v1 submit status = %d, want 410", resp.StatusCode)
	}
	// Unknown device.
	resp, err = c.Get(srv.URL + "/api/v1/device?device=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown device status = %d, want 404", resp.StatusCode)
	}
	// Wrong method.
	resp, err = c.Head(srv.URL + "/api/v1/device")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("HEAD status = %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(NewFleetServer(newStack(t, 11)))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}
