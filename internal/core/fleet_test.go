package core

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/facility"
	"repro/internal/fleet"
	"repro/internal/mqss"
)

func commissionedCenter(t *testing.T) *Center {
	t.Helper()
	c, err := New(Config{Seed: 5, DigitalTwin: true})
	if err != nil {
		t.Fatal(err)
	}
	sites := []facility.Site{{
		Name: "basement", Env: facility.Quiet(),
		DeliveryWidthCM: 120, FloorLoadKgM2: 1500, CellTowerDistM: 800, FluorescentM: 6,
	}}
	if _, err := c.CommissionFast(sites, facility.SurveyConfig{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCenterBuildFleet(t *testing.T) {
	c := commissionedCenter(t)
	f, err := c.BuildFleet(FleetConfig{
		Devices: 4, WorkersPerDevice: 2,
		Policy:               fleet.PolicyBestFidelity,
		MaintenanceEveryDays: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	names := f.Devices()
	if len(names) != 4 {
		t.Fatalf("fleet has %d devices, want 4", len(names))
	}
	if names[0] != c.QPU.Name() {
		t.Fatalf("primary device %q is not the center QPU %q", names[0], c.QPU.Name())
	}
	// Every device carries a staggered maintenance plan.
	starts := map[float64]bool{}
	for _, name := range names {
		plan, err := f.MaintenancePlan(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) == 0 {
			t.Fatalf("device %s has no maintenance plan", name)
		}
		starts[plan[0].StartDay] = true
	}
	if len(starts) != len(names) {
		t.Fatalf("maintenance windows not staggered: %v", starts)
	}

	// Work flows end to end through the fleet client.
	client := c.LocalClient()
	j, err := client.Run(context.Background(), mqss.SubmitRequest{Circuit: circuit.GHZ(4), Shots: 20, User: "core"})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != mqss.StateDone || j.Device == "" || len(j.Counts) == 0 {
		t.Fatalf("fleet job through center: %+v", j)
	}

	// The fleet collector is registered: polling publishes fleet sensors
	// into the center store.
	c.Poll.Poll(1000)
	if _, ok := c.Store.Latest("fleet_devices"); !ok {
		t.Fatalf("fleet gauges not polled into the center store (have %d sensors)", len(c.Store.Sensors()))
	}
}

func TestCenterBuildFleetValidation(t *testing.T) {
	c := commissionedCenter(t)
	if _, err := c.BuildFleet(FleetConfig{Devices: 0}); err == nil {
		t.Fatal("zero devices should fail")
	}
	if _, err := c.BuildFleet(FleetConfig{Devices: 2, Policy: fleet.Policy("warp")}); err == nil {
		t.Fatal("bad policy should fail")
	}
}
