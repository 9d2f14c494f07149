package mqss

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// httpGetJSON fetches a URL and decodes the JSON object response.
func httpGetJSON(url string) (map[string]interface{}, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// newTestFleet builds a fleet scheduler over the given named devices.
func newTestFleet(t *testing.T, devs map[string]*qdmi.Device, workers int) *fleet.Scheduler {
	t.Helper()
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	for name, dev := range devs {
		if err := f.AddDevice(name, dev, workers); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(f.Stop)
	return f
}

func twinDev(t *testing.T, name string, rows, cols int, seed int64) *qdmi.Device {
	t.Helper()
	qpu, err := device.New(device.Config{Name: name, Rows: rows, Cols: cols, Seed: seed, DigitalTwin: true})
	if err != nil {
		t.Fatal(err)
	}
	return qdmi.NewDevice(qpu, nil)
}

func TestFleetServerEndToEnd(t *testing.T) {
	f := newTestFleet(t, map[string]*qdmi.Device{
		"alpha": twinDev(t, "alpha", 4, 5, 1),
		"beta":  twinDev(t, "beta", 3, 3, 2),
	}, 2)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)
	client := NewRemoteClient(srv.URL, nil)

	// Routed submit with the policy knob.
	j, err := client.RunRouted(context.Background(), qrm.Request{Circuit: circuit.GHZ(3), Shots: 10, User: "u"},
		RouteOptions{Policy: "least-loaded"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != "done" || j.Device == "" || j.Result == nil {
		t.Fatalf("routed job: %+v", j)
	}
	if len(j.Result.Counts) == 0 {
		t.Fatal("routed job has no counts")
	}

	// Device pin: a 16-qubit circuit fits alpha (20q) only; pin it anyway
	// and check the envelope honours it.
	j2, err := client.RunRouted(context.Background(), qrm.Request{Circuit: circuit.GHZ(16), Shots: 5, User: "u"},
		RouteOptions{Device: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Device != "alpha" || j2.Pinned != "alpha" {
		t.Fatalf("pin ignored: device=%q pinned=%q", j2.Device, j2.Pinned)
	}

	// Pinning a too-small device is a 422.
	if _, err := client.RunRouted(context.Background(), qrm.Request{Circuit: circuit.GHZ(16), Shots: 5, User: "u"},
		RouteOptions{Device: "beta"}); err == nil {
		t.Fatal("pinning a 16q circuit to a 9q device should fail")
	}
	// Unknown policy is a 400.
	if _, err := client.RunRouted(context.Background(), qrm.Request{Circuit: circuit.GHZ(2), Shots: 5, User: "u"},
		RouteOptions{Policy: "fastest"}); err == nil {
		t.Fatal("unknown policy should fail")
	}

	// Batch stream across the fleet.
	reqs := make([]qrm.Request, 6)
	for i := range reqs {
		reqs[i] = qrm.Request{Circuit: circuit.GHZ(3), Shots: 5, User: "u"}
	}
	order := make([]int, 0, len(reqs))
	jobs, err := client.StreamBatchRouted(context.Background(), reqs, RouteOptions{Policy: "round-robin"}, func(j *fleet.Job) {
		order = append(order, j.ID)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 || len(order) != 6 {
		t.Fatalf("batch: %d jobs, %d streamed", len(jobs), len(order))
	}
	seen := map[string]int{}
	for _, j := range jobs {
		if j.Status != "done" {
			t.Fatalf("batch job %d: %s (%s)", j.ID, j.Status, j.Error)
		}
		seen[j.Device]++
	}
	if len(seen) != 2 {
		t.Fatalf("round-robin batch used %v, want both devices", seen)
	}

	// Fleet metrics snapshot over REST.
	m, err := client.FleetMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Devices) != 2 || m.Completed < 8 {
		t.Fatalf("fleet metrics: %d devices, %d completed", len(m.Devices), m.Completed)
	}

	// Per-device info carries the full calibration record with couplers.
	info, err := client.FleetDevice(context.Background(), "beta")
	if err != nil {
		t.Fatal(err)
	}
	if info.Properties.NumQubits != 9 {
		t.Fatalf("beta has %d qubits", info.Properties.NumQubits)
	}
	if info.Calibration == nil || len(info.Calibration.Couplers) == 0 {
		t.Fatalf("device info lost coupler calibration: %+v", info.Calibration)
	}
	if info.Calibration.FCZ(0, 1) <= 0 {
		t.Fatal("coupler CZ fidelity missing after the REST round trip")
	}

	// The legacy polling endpoint resolves fleet job IDs.
	legacy, err := client.Job(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.ID != j.ID || legacy.Status != qrm.StatusDone {
		t.Fatalf("legacy lookup of fleet job: %+v", legacy)
	}
}

func TestFleetServerDrainDuringStream(t *testing.T) {
	alpha := twinDev(t, "alpha", 4, 5, 1)
	alpha.QPU().SetExecLatency(4 * time.Millisecond)
	beta := twinDev(t, "beta", 4, 5, 2)
	f := newTestFleet(t, map[string]*qdmi.Device{"alpha": alpha, "beta": beta}, 1)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)
	client := NewRemoteClient(srv.URL, nil)

	if err := f.Drain("beta"); err != nil {
		t.Fatal(err)
	}
	reqs := make([]qrm.Request, 10)
	for i := range reqs {
		reqs[i] = qrm.Request{Circuit: circuit.GHZ(3), Shots: 5, User: "u"}
	}
	errCh := make(chan error, 1)
	jobsCh := make(chan []*fleet.Job, 1)
	go func() {
		jobs, err := client.StreamBatchRouted(context.Background(), reqs, RouteOptions{}, nil)
		jobsCh <- jobs
		errCh <- err
	}()
	// Mid-stream: drain the loaded device and bring its sibling up.
	time.Sleep(8 * time.Millisecond)
	if err := f.Drain("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := f.Resume("beta"); err != nil {
		t.Fatal(err)
	}
	jobs := <-jobsCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	migrated := 0
	for _, j := range jobs {
		if j.Status != "done" {
			t.Fatalf("job %d lost across the drain: %s (%s)", j.ID, j.Status, j.Error)
		}
		if j.Migrations > 0 {
			migrated++
		}
	}
	if migrated == 0 {
		t.Fatal("no job migrated during the mid-stream drain")
	}
	// The local fleet client sees the same stack.
	local := NewLocalClient(f)
	if local.Path() != PathHPC {
		t.Fatalf("local fleet client path %s", local.Path())
	}
	j, err := local.Run(context.Background(), qrm.Request{Circuit: circuit.GHZ(2), Shots: 5, User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != qrm.StatusDone || len(j.Counts) == 0 {
		t.Fatalf("local fleet Run: %+v", j)
	}
}

func TestLegacyClientAgainstFleetServer(t *testing.T) {
	// "Without requiring any code modifications from the user": a client
	// written for the single-device API must work unchanged against a fleet
	// server — Run, StreamBatch, Job, and History all flatten the fleet
	// envelope into device-level records keyed by the fleet job ID.
	f := newTestFleet(t, map[string]*qdmi.Device{
		"alpha": twinDev(t, "alpha", 4, 5, 1),
		"beta":  twinDev(t, "beta", 3, 3, 2),
	}, 2)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)
	client := NewRemoteClient(srv.URL, nil)

	j, err := client.Run(context.Background(), qrm.Request{Circuit: circuit.GHZ(3), Shots: 20, User: "legacy"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != qrm.StatusDone || len(j.Counts) == 0 || j.CompiledGates == 0 {
		t.Fatalf("legacy Run against fleet lost the device record: %+v", j)
	}
	got, err := client.Job(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != j.ID || len(got.Counts) == 0 {
		t.Fatalf("legacy Job lookup: %+v", got)
	}
	reqs := []qrm.Request{
		{Circuit: circuit.GHZ(2), Shots: 10, User: "legacy"},
		{Circuit: circuit.GHZ(4), Shots: 10, User: "legacy"},
	}
	jobs, err := client.StreamBatch(context.Background(), reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bj := range jobs {
		if bj.Status != qrm.StatusDone || len(bj.Counts) == 0 {
			t.Fatalf("legacy StreamBatch job: %+v", bj)
		}
	}
	page, err := client.History(context.Background(), "legacy", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 3 {
		t.Fatalf("history total %d, want 3", page.Total)
	}
	for _, hj := range page.Jobs {
		if len(hj.Counts) == 0 {
			t.Fatalf("history entry lost counts: %+v", hj)
		}
	}
}

func TestFleetHealthz(t *testing.T) {
	f := newTestFleet(t, map[string]*qdmi.Device{"solo": twinDev(t, "solo", 2, 2, 1)}, 1)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)

	get := func() string {
		r, err := httpGetJSON(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		return r["status"].(string)
	}
	if st := get(); st != "ok" {
		t.Fatalf("healthz: %q", st)
	}
	if err := f.Drain("solo"); err != nil {
		t.Fatal(err)
	}
	if st := get(); st != "fleet-offline" {
		t.Fatalf("healthz with all devices drained: %q", st)
	}
}
