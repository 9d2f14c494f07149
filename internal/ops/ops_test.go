package ops

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/calib"
)

func TestFigure4Campaign146Days(t *testing.T) {
	sim, err := New(Config{Days: 146, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) < 140 {
		t.Fatalf("series has %d points, want ~146 daily samples", len(rep.Series))
	}
	st := rep.Stats()
	// Figure 4's claim: consistent fidelities over the whole campaign.
	if st.MeanF1Q < 0.997 {
		t.Errorf("mean F1Q = %.4f, want >= 0.997 (Fig 4 band)", st.MeanF1Q)
	}
	if st.MinF1Q < 0.985 {
		t.Errorf("min F1Q = %.4f dipped too low", st.MinF1Q)
	}
	if st.MeanFCZ < 0.98 {
		t.Errorf("mean FCZ = %.4f, want >= 0.98", st.MeanFCZ)
	}
	if st.MeanFReadout < 0.96 {
		t.Errorf("mean Freadout = %.4f, want >= 0.96", st.MeanFReadout)
	}
	// Unattended operation: no outages injected, so the whole campaign runs
	// without human intervention — the paper's ">100 days" claim.
	if rep.UnattendedDays < 100 {
		t.Errorf("unattended = %.0f days, want >= 100", rep.UnattendedDays)
	}
	// Daily quick + weekly full cadence.
	if rep.QuickCals < 100 {
		t.Errorf("quick calibrations = %d, want ~daily", rep.QuickCals)
	}
	if rep.FullCals < 15 || rep.FullCals > 30 {
		t.Errorf("full calibrations = %d, want ~weekly (20±)", rep.FullCals)
	}
	if rep.WarmupsAbove1K != 0 {
		t.Errorf("warmups = %d, want 0 without outages", rep.WarmupsAbove1K)
	}
	if rep.AvailableFraction < 0.9 {
		t.Errorf("availability = %.3f, want >= 0.9", rep.AvailableFraction)
	}
}

func TestDriftWithoutCalibrationDegrades(t *testing.T) {
	// Ablation: a policy that never calibrates lets fidelity sag toward the
	// degraded asymptote — the reason lesson 2 exists.
	never := &calib.Policy{QuickEveryHours: 1e12, FullEveryHours: 1e12}
	sim, err := New(Config{Days: 60, Seed: 7, Policy: never})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuickCals != 0 || rep.FullCals != 0 {
		t.Fatalf("never-policy still calibrated: %d quick, %d full", rep.QuickCals, rep.FullCals)
	}
	st := rep.Stats()
	if st.MinF1Q > 0.995 {
		t.Errorf("uncalibrated min F1Q = %.4f, should have degraded below 0.995", st.MinF1Q)
	}
	// Compare against the calibrated baseline on the same seed.
	simCal, _ := New(Config{Days: 60, Seed: 7})
	repCal, err := simCal.Run()
	if err != nil {
		t.Fatal(err)
	}
	if repCal.Stats().MeanF1Q <= st.MeanF1Q {
		t.Errorf("calibrated mean %.4f should beat uncalibrated %.4f",
			repCal.Stats().MeanF1Q, st.MeanF1Q)
	}
}

func TestCoolingOutageWithoutRedundancyCausesWarmup(t *testing.T) {
	sim, err := New(Config{
		Days: 10, Seed: 3,
		Outages: []OutageEvent{{Kind: OutageCoolingWater, StartDay: 3, DurationHours: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.WarmupsAbove1K == 0 {
		t.Error("6 h cooling-water outage should warm the QPU past 1 K (§3.5)")
	}
	if rep.DowntimeHours < 6 {
		t.Errorf("downtime = %.1f h, want >= outage duration", rep.DowntimeHours)
	}
	if rep.CooldownHours == 0 {
		t.Error("recovery should include a cooldown phase")
	}
	// A full calibration is forced after the warm-up (§3.5).
	if rep.FullCals == 0 {
		t.Error("post-outage full calibration missing")
	}
	if rep.UnattendedDays >= 10 {
		t.Error("outage repair should break the unattended streak")
	}
}

func TestRedundantInfrastructureRidesThroughOutage(t *testing.T) {
	// Lesson 3: with redundant feeds, the same fault causes no warmup.
	outages := []OutageEvent{{Kind: OutageCoolingWater, StartDay: 3, DurationHours: 6}}
	simR, err := New(Config{Days: 10, Seed: 3, Redundant: true, Outages: outages})
	if err != nil {
		t.Fatal(err)
	}
	repR, err := simR.Run()
	if err != nil {
		t.Fatal(err)
	}
	if repR.WarmupsAbove1K != 0 {
		t.Errorf("redundant loop warmed up %d times, want 0", repR.WarmupsAbove1K)
	}
	simN, _ := New(Config{Days: 10, Seed: 3, Outages: outages})
	repN, err := simN.Run()
	if err != nil {
		t.Fatal(err)
	}
	if repR.AvailableFraction <= repN.AvailableFraction {
		t.Errorf("redundant availability %.4f should beat non-redundant %.4f",
			repR.AvailableFraction, repN.AvailableFraction)
	}
}

func TestPowerOutageRedundantUPSHolds(t *testing.T) {
	// A 2-hour grid outage: UPS (4 h) + second feed ride through.
	outages := []OutageEvent{{Kind: OutagePower, StartDay: 2, DurationHours: 2}}
	simR, err := New(Config{Days: 5, Seed: 9, Redundant: true, Outages: outages})
	if err != nil {
		t.Fatal(err)
	}
	repR, err := simR.Run()
	if err != nil {
		t.Fatal(err)
	}
	if repR.WarmupsAbove1K != 0 {
		t.Error("UPS-backed system should not warm up during a 2 h grid outage")
	}
	simN, _ := New(Config{Days: 5, Seed: 9, Outages: outages})
	repN, _ := simN.Run()
	if repN.WarmupsAbove1K == 0 {
		t.Error("single-feed system should lose cooling in a grid outage")
	}
}

func TestTelemetryPopulated(t *testing.T) {
	sim, err := New(Config{Days: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	store := sim.Store()
	for _, sensor := range []string{"fidelity_1q", "fidelity_cz", "mxc_temp_k", "power_kw", "water_temp_c"} {
		if store.Count(sensor) < 4 {
			t.Errorf("sensor %s has %d samples, want daily", sensor, store.Count(sensor))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Days: 0}); err == nil {
		t.Error("expected error for 0 days")
	}
}

func TestReportStatsEmpty(t *testing.T) {
	r := &Report{}
	st := r.Stats()
	if st.MeanF1Q != 0 {
		t.Error("empty report stats should be zero")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() SeriesStats {
		sim, err := New(Config{Days: 20, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("campaign not deterministic: %+v vs %+v", a, b)
	}
}

// TestCampaignMatchesParent holds five campaigns to the reports the
// stand-alone plant model produced before the campaign ran on core.Center:
// every Report field and every series point, compared exactly. The
// reports in testdata/campaigns.json were recorded once from that model
// and are not regenerated; a change to drift, cryo, facility or the
// calibration rule that moves a campaign fails here.
func TestCampaignMatchesParent(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "campaigns.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*Report
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	water := func(day, hours float64) []OutageEvent {
		return []OutageEvent{{Kind: OutageCoolingWater, StartDay: day, DurationHours: hours}}
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"146d-seed42", Config{Days: 146, Seed: 42}},
		{"14d-seed3-water-6h-day3", Config{Days: 14, Seed: 3, Outages: water(3, 6)}},
		{"14d-seed3-water-6h-day3-redundant", Config{Days: 14, Seed: 3, Redundant: true, Outages: water(3, 6)}},
		{"30d-seed5-power-2h-day4", Config{Days: 30, Seed: 5, Outages: []OutageEvent{{Kind: OutagePower, StartDay: 4, DurationHours: 2}}}},
		{"60d-seed9-water-12h-day10", Config{Days: 60, Seed: 9, Outages: water(10, 12)}},
	}
	if len(want) != len(cases) {
		t.Fatalf("testdata holds %d campaigns, the test runs %d", len(want), len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, ok := want[tc.name]
			if !ok {
				t.Fatalf("no recorded report for %s", tc.name)
			}
			sim, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(got.Series) && i < len(w.Series); i++ {
				if got.Series[i] != w.Series[i] {
					t.Fatalf("series point %d = %+v, recorded %+v", i, got.Series[i], w.Series[i])
				}
			}
			if len(got.Series) != len(w.Series) {
				t.Errorf("series has %d points, recorded %d", len(got.Series), len(w.Series))
			}
			gs, ws := *got, *w
			gs.Series, ws.Series = nil, nil
			if !reflect.DeepEqual(gs, ws) {
				t.Errorf("report = %+v\nrecorded %+v", gs, ws)
			}
		})
	}
}
