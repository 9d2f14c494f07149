package mqss

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/telemetry"
)

// oneDeviceFleet builds the single-QPU deployment shape: a fleet whose only
// device is qpu, registered under its own name. The pool stops with the
// test.
func oneDeviceFleet(t *testing.T, qpu *device.QPU, store *telemetry.Store, workers int) *fleet.Scheduler {
	t.Helper()
	f := fleet.New(fleet.PolicyBestFidelity, store)
	if err := f.AddDevice(qpu.Name(), qdmi.NewDevice(qpu, store), workers); err != nil {
		t.Fatal(err)
	}
	stopAndAuditAtCleanup(t, f)
	return f
}

// newStack builds a full twin-device stack with a telemetry store. One
// worker: jobs run in submission order, so twin counts are deterministic.
func newStack(t *testing.T, seed int64) *fleet.Scheduler {
	t.Helper()
	store := telemetry.NewStore(0)
	store.Append("fidelity_1q", 0, 0.999)
	return oneDeviceFleet(t, device.NewTwin20Q(seed), store, 1)
}

func TestLocalClientPath(t *testing.T) {
	c := NewLocalClient(newStack(t, 1))
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

func TestAutoClientRouting(t *testing.T) {
	if NewAutoClient(newStack(t, 3), "", nil).Path() != PathHPC {
		t.Error("auto client with a local scheduler should pick the HPC path")
	}
	if NewAutoClient(nil, "http://example", nil).Path() != PathREST {
		t.Error("auto client without a local scheduler should pick the REST path")
	}
}

func TestBothPathsProduceSameDistribution(t *testing.T) {
	// The same job via HPC path and REST path on identical twin devices
	// must produce identical histograms up to sampling noise — the "no
	// code modifications" promise of the client.
	srv := httptest.NewServer(NewFleetServer(newStack(t, 4)))
	defer srv.Close()

	local := NewLocalClient(newStack(t, 4))
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
		c := NewLocalClient(f)
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
	f := newStack(t, 8)
	srv := httptest.NewServer(NewFleetServer(f))
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
	// Local clients don't implement Device().
	if _, err := NewLocalClient(f).Device(context.Background()); err == nil {
		t.Error("local Device() should direct users to QDMI")
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

func TestTelemetryEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewFleetServer(newStack(t, 10)))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/v1/telemetry/fidelity_1q")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("telemetry status = %d", resp.StatusCode)
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

func TestQASMAdapter(t *testing.T) {
	a := QASMAdapter{}
	if a.AdapterName() != "qasm" {
		t.Error("adapter name")
	}
	c, err := a.Build("qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 2 || len(c.Gates) != 2 {
		t.Errorf("adapted circuit: %d qubits, %d gates", c.NumQubits, len(c.Gates))
	}
	if _, err := a.Build("garbage"); err == nil {
		t.Error("expected parse error")
	}
}

func TestQPIBuilder(t *testing.T) {
	c, err := NewQPI(3, "qpi-demo").H(0).CNOT(0, 1).RY(2, 0.5).RZ(2, 0.25).CZ(1, 2).X(0).Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 6 {
		t.Errorf("gates = %d", len(c.Gates))
	}
	if _, err := NewQPI(0, "bad").Circuit(); err == nil {
		t.Error("expected error for 0 qubits")
	}
	if _, err := NewQPI(2, "bad").H(7).Circuit(); err == nil {
		t.Error("expected error for out-of-range qubit")
	}
	// Error sticks: further calls do not panic.
	if _, err := NewQPI(2, "bad").H(7).CNOT(0, 1).Circuit(); err == nil {
		t.Error("builder error should persist")
	}
}

func TestPulseProgramCompilesToPRX(t *testing.T) {
	// A pi-pulse: Rabi 10 MHz for 0.05 µs -> theta = 2π·0.5 = π.
	p := &PulseProgram{
		NumQubits: 1,
		Pulses:    []Pulse{{Qubit: 0, AmplitudeMHz: 10, DurationUs: 0.05, PhaseRad: 0}},
	}
	c, err := p.Compile("pi-pulse")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 || c.Gates[0].Name != circuit.OpPRX {
		t.Fatalf("compiled = %+v", c.Gates)
	}
	if math.Abs(c.Gates[0].Params[0]-math.Pi) > 1e-12 {
		t.Errorf("theta = %g, want pi", c.Gates[0].Params[0])
	}
	// Ideal simulation flips |0> to |1>.
	s, err := c.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if pr := s.Probability(1); math.Abs(pr-1) > 1e-9 {
		t.Errorf("pi-pulse P(1) = %g", pr)
	}
}

func TestPulseProgramValidation(t *testing.T) {
	if _, err := (&PulseProgram{NumQubits: 0}).Compile("x"); err == nil {
		t.Error("expected error for 0 qubits")
	}
	bad := &PulseProgram{NumQubits: 1, Pulses: []Pulse{{Qubit: 5, AmplitudeMHz: 1, DurationUs: 1}}}
	if _, err := bad.Compile("x"); err == nil {
		t.Error("expected error for out-of-range qubit")
	}
	bad2 := &PulseProgram{NumQubits: 1, Pulses: []Pulse{{Qubit: 0, AmplitudeMHz: 0, DurationUs: 1}}}
	if _, err := bad2.Compile("x"); err == nil {
		t.Error("expected error for zero amplitude")
	}
}
