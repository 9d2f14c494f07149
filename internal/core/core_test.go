package core

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/calib"
	"repro/internal/circuit"
	"repro/internal/facility"
	"repro/internal/mqss"
	"repro/internal/telemetry"
)

func candidates() []facility.Site {
	return []facility.Site{
		{Name: "street-side", Env: facility.NoisyUrban(), DeliveryWidthCM: 100, FloorLoadKgM2: 1200, CellTowerDistM: 500, FluorescentM: 5},
		{Name: "basement", Env: facility.Quiet(), DeliveryWidthCM: 120, FloorLoadKgM2: 1500, CellTowerDistM: 800, FluorescentM: 6},
	}
}

func commissioned(t *testing.T, cfg Config) *Center {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	days, err := c.CommissionFast(candidates(), facility.SurveyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if days < 2 || days > 5 {
		t.Errorf("commissioning cooldown took %.1f days, want 2-5 (§3.5)", days)
	}
	return c
}

func TestLifecyclePhases(t *testing.T) {
	c, err := New(Config{Seed: 1, DigitalTwin: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Phase() != PhaseSiteSelection {
		t.Fatalf("initial phase = %s", c.Phase())
	}
	if err := c.Install(); err == nil {
		t.Error("install before site selection should fail")
	}
	rep, err := c.SelectSite(candidates(), facility.SurveyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Site != "basement" {
		t.Errorf("selected %s, want basement", rep.Site)
	}
	if c.Phase() != PhaseInstallation {
		t.Errorf("phase after selection = %s", c.Phase())
	}
	if _, err := c.SelectSite(candidates(), facility.SurveyConfig{Seed: 1}); err == nil {
		t.Error("double site selection should fail")
	}
	if err := c.Install(); err != nil {
		t.Fatal(err)
	}
	if c.Phase() != PhaseCommissioning {
		t.Errorf("phase after install = %s", c.Phase())
	}
	// QPU must be offline during commissioning.
	if c.HPC.QPUOnline() || c.Fleet().ActiveDevices() != 0 {
		t.Error("QPU online before commissioning finished")
	}
}

func TestSelectSiteFailsWhenNothingPasses(t *testing.T) {
	c, _ := New(Config{Seed: 2})
	bad := []facility.Site{
		{Name: "noisy", Env: facility.NoisyUrban(), DeliveryWidthCM: 100, FloorLoadKgM2: 1200, CellTowerDistM: 500, FluorescentM: 5},
	}
	if _, err := c.SelectSite(bad, facility.SurveyConfig{Seed: 2}); err == nil {
		t.Error("expected failure when no site passes Table 1")
	}
}

func TestCommissionAndRunJobs(t *testing.T) {
	c := commissioned(t, Config{Seed: 3, DigitalTwin: true})
	if !c.Operational() {
		t.Fatal("center not operational")
	}
	client := c.LocalClient()
	job, err := client.Run(context.Background(), mqss.SubmitRequest{Circuit: circuit.GHZ(5), Shots: 500, User: "early-user"})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != mqss.StateDone {
		t.Fatalf("job = %s (%v)", job.State, job.Error)
	}
	if len(job.Counts) != 2 {
		t.Errorf("twin GHZ outcomes = %d", len(job.Counts))
	}
}

func TestRESTPathThroughCenter(t *testing.T) {
	c := commissioned(t, Config{Seed: 4, DigitalTwin: true})
	srv := httptest.NewServer(c.RESTHandler())
	defer srv.Close()
	info, err := mqss.NewRemoteClient(srv.URL, srv.Client()).Device(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Fidelity1Q < 0.99 {
		t.Errorf("fidelity over REST = %g", info.Fidelity1Q)
	}
}

// TestTelemetryEndpoint: the center's handler serves the DCDB store the
// poller fills (§3.1) beside the v2 API.
func TestTelemetryEndpoint(t *testing.T) {
	c := commissioned(t, Config{Seed: 10, DigitalTwin: true})
	srv := httptest.NewServer(c.RESTHandler())
	defer srv.Close()
	get := func(path string, out any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	var list struct{ Sensors []string }
	get("/api/v1/telemetry/", &list)
	if !slices.Contains(list.Sensors, "mxc_temp_k") {
		t.Fatalf("sensors %v lack the cryo plant's mxc_temp_k", list.Sensors)
	}
	var series struct {
		Sensor  string
		Samples []telemetry.Sample
	}
	get("/api/v1/telemetry/mxc_temp_k", &series)
	if series.Sensor != "mxc_temp_k" || len(series.Samples) == 0 {
		t.Fatalf("series = %+v, want the poller's commissioning samples", series)
	}
	if last := series.Samples[len(series.Samples)-1]; last.Value <= 0 || last.Value > 0.1 {
		t.Errorf("latest mixing-chamber temperature %g K, want a cold QPU", last.Value)
	}
}

func TestHealthCheckThroughCenter(t *testing.T) {
	c := commissioned(t, Config{Seed: 5})
	hc, err := c.RunHealthCheck([]int{2, 4}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !hc.Pass {
		t.Errorf("freshly commissioned center failed health check: %+v", hc.Fidelities)
	}
}

func TestOutageTakesQPUOfflineAndRecovers(t *testing.T) {
	c := commissioned(t, Config{Seed: 6, DigitalTwin: true})
	defer c.Fleet().Stop()
	// Kill the only water feed: cooling stops, QPU warms, center -> outage.
	c.Water.Feeds()[0].Fail()
	for i := 0; i < 4; i++ {
		c.Advance(3600)
	}
	if c.Phase() != PhaseOutage {
		t.Fatalf("phase = %s, want outage", c.Phase())
	}
	if c.HPC.QPUOnline() || c.Fleet().ActiveDevices() != 0 {
		t.Error("QPU should be offline during outage")
	}
	// Repair; recovery takes hours-days of re-cooling.
	c.Water.Feeds()[0].Restore()
	hours := 0
	for !c.Operational() && hours < 24*7 {
		c.Advance(3600)
		hours++
	}
	if !c.Operational() {
		t.Fatal("center did not recover within a week")
	}
	if !c.HPC.QPUOnline() || c.Fleet().ActiveDevices() != 1 {
		t.Error("QPU should be back online after recovery")
	}
}

// TestWarmupForcesFullRecalibration: §3.5 — a QPU that warmed above 1 K
// lost its calibration, so the first calibration once it is cold again is
// full, in the very hour it comes back online.
func TestWarmupForcesFullRecalibration(t *testing.T) {
	c, err := NewCommissioned(Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if c.Advance(3600); !c.Operational() {
			t.Fatalf("commissioned center left operation at hour %d (phase %s)", i, c.Phase())
		}
	}
	c.Water.Feeds()[0].Fail()
	for i := 0; i < 6; i++ {
		c.Advance(3600)
	}
	if c.Cryo.CalibrationSafe() {
		t.Fatalf("QPU at %.2f K after a 6 h water outage, want above 1 K", c.Cryo.QPUTemperature())
	}
	c.Water.Feeds()[0].Restore()
	proc := calib.ProcedureNone
	for hours := 0; !c.Operational(); hours++ {
		if hours > 24*7 {
			t.Fatal("center did not recover within a week")
		}
		proc = c.Advance(3600)
	}
	if proc != calib.ProcedureFull || c.Policy.HoursSinceFull() != 0 {
		t.Errorf("recovery ran %s, %.0f h since the last full calibration; want full, 0 h",
			proc, c.Policy.HoursSinceFull())
	}
}

func TestRedundantCenterSurvivesSingleFeedFault(t *testing.T) {
	c := commissioned(t, Config{Seed: 7, Redundant: true, DigitalTwin: true})
	c.Water.Feeds()[0].Fail()
	for i := 0; i < 12; i++ {
		c.Advance(3600)
	}
	if c.Phase() != PhaseOperational {
		t.Errorf("redundant center phase = %s, want operational", c.Phase())
	}
}

func TestTelemetryFlowsThroughCenter(t *testing.T) {
	c := commissioned(t, Config{Seed: 8, DigitalTwin: true})
	for i := 0; i < 5; i++ {
		c.Advance(600)
	}
	for _, sensor := range []string{"mxc_temp_k", "power_kw", "fidelity_1q", "ln2_liters"} {
		if c.Store.Count(sensor) == 0 {
			t.Errorf("sensor %s has no samples", sensor)
		}
	}
}

func TestHealthCheckRequiresOperational(t *testing.T) {
	c, _ := New(Config{Seed: 9})
	if _, err := c.RunHealthCheck([]int{2}, 100); err == nil {
		t.Error("health check before commissioning should fail")
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseSiteSelection: "site-selection",
		PhaseInstallation:  "installation",
		PhaseCommissioning: "commissioning",
		PhaseOperational:   "operational",
		PhaseOutage:        "outage",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("phase %d = %q, want %q", p, p.String(), s)
		}
	}
}
