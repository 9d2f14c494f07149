package mqss

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
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
	stopAndAuditAtCleanup(t, f)
	return f
}

// stopAndAuditAtCleanup stops the fleet when the test ends and holds it to
// the lifecycle table: whatever the test did to its jobs, every move they
// made must have been a listed edge.
func stopAndAuditAtCleanup(t *testing.T, f *fleet.Scheduler) {
	t.Cleanup(func() {
		f.Stop() // idempotent: tests that stop the fleet themselves are fine
		if n := f.Metrics().IllegalTransitions; n != 0 {
			t.Errorf("IllegalTransitions = %d, want 0: a job moved outside fleet's lifecycle table", n)
		}
	})
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

	ctx := context.Background()
	run := func(n int, device, policy string) (*Job, error) {
		return client.Run(ctx, SubmitRequest{Circuit: circuit.GHZ(n), Shots: 5, User: "u", Device: device, Policy: policy})
	}
	wantCode := func(what string, err error, code string) {
		t.Helper()
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != code {
			t.Fatalf("%s: err = %v, want %s", what, err, code)
		}
	}

	// Routed submit with the policy knob.
	j, err := run(3, "", "least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone || j.Device == "" || len(j.Counts) == 0 {
		t.Fatalf("routed job: %+v", j)
	}

	// Device pin: a 16-qubit circuit fits alpha (20q) only; pin it anyway
	// and check the record honours it.
	j2, err := run(16, "alpha", "")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Device != "alpha" || j2.Pinned != "alpha" {
		t.Fatalf("pin ignored: device=%q pinned=%q", j2.Device, j2.Pinned)
	}

	// Pinning a too-small device, a circuit wider than every device, and an
	// unknown device are 422s; an unknown policy is a 400.
	_, err = run(16, "beta", "")
	wantCode("16q circuit pinned to a 9q device", err, CodeUnprocessable)
	_, err = run(21, "", "")
	wantCode("21q circuit on a 20q fleet", err, CodeUnprocessable)
	_, err = run(2, "gamma", "")
	wantCode("unknown device", err, CodeUnprocessable)
	_, err = run(2, "", "fastest")
	wantCode("unknown policy", err, CodeInvalidRequest)

	// Round-robin spreads a string of jobs across the fleet.
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		rj, err := run(3, "", "round-robin")
		if err != nil {
			t.Fatal(err)
		}
		if rj.State != StateDone {
			t.Fatalf("round-robin job %s: %s (%v)", rj.ID, rj.State, rj.Error)
		}
		seen[rj.Device]++
	}
	if len(seen) != 2 {
		t.Fatalf("round-robin jobs used %v, want both devices", seen)
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
	ctx := context.Background()
	handles := make([]*JobHandle, 10)
	for i := range handles {
		h, err := client.Submit(ctx, SubmitRequest{Circuit: circuit.GHZ(3), Shots: 5, User: "u"}, "")
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	// Mid-flight: drain the loaded device and bring its sibling up.
	time.Sleep(8 * time.Millisecond)
	if err := f.Drain("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := f.Resume("beta"); err != nil {
		t.Fatal(err)
	}
	// The drain moves nothing: the jobs still queued are claimed by beta.
	onBeta := 0
	for _, h := range handles {
		j, err := h.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone || j.Migrations != 0 {
			t.Fatalf("job %s across the drain: %s after %d migrations (%v)", j.ID, j.State, j.Migrations, j.Error)
		}
		if j.Device == "beta" {
			onBeta++
		}
	}
	if onBeta == 0 {
		t.Fatal("no job queued behind the mid-flight drain ran on the sibling")
	}
	// The local fleet client sees the same stack.
	local := NewLocalClient(srv.Config.Handler)
	if local.Path() != PathHPC {
		t.Fatalf("local fleet client path %s", local.Path())
	}
	j, err := local.Run(ctx, SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5, User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone || len(j.Counts) == 0 {
		t.Fatalf("local fleet Run: %+v", j)
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
