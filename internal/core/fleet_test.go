package core

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/mqss"
)

// TestCenterFleetIsPolled: the center's fleet serves the primary QPU and
// rides the center poller, so its gauges land in the center store.
func TestCenterFleetIsPolled(t *testing.T) {
	c := commissioned(t, Config{Seed: 5, DigitalTwin: true})
	f := c.Fleet()
	defer f.Stop()
	if c.Fleet() != f {
		t.Fatal("Fleet built a second scheduler")
	}
	if names := f.Devices(); len(names) != 1 || names[0] != c.QPU.Name() {
		t.Fatalf("fleet roster %v, want the center QPU %q alone", names, c.QPU.Name())
	}

	j, err := c.LocalClient().Run(context.Background(), mqss.SubmitRequest{Circuit: circuit.GHZ(4), Shots: 20, User: "core"})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != mqss.StateDone || j.Device != c.QPU.Name() || len(j.Counts) == 0 {
		t.Fatalf("fleet job through center: %+v", j)
	}

	c.Poll.Poll(1000)
	if v, ok := c.Store.Latest("fleet_completed"); !ok || v.Value != 1 {
		t.Fatalf("fleet gauges not polled into the center store: fleet_completed = %+v, %v (have %d sensors)",
			v, ok, len(c.Store.Sensors()))
	}
}
