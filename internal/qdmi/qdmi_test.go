package qdmi

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/telemetry"
	"repro/internal/transpile"
)

func TestProperties(t *testing.T) {
	d := NewDevice(device.New20Q(1), nil)
	p := d.Properties()
	if p.NumQubits != 20 {
		t.Errorf("qubits = %d", p.NumQubits)
	}
	if p.Name != "garnet-20" {
		t.Errorf("name = %q", p.Name)
	}
	if len(p.NativeOps) != 4 {
		t.Errorf("native ops = %v", p.NativeOps)
	}
	if len(p.CouplingMap) != 20 {
		t.Errorf("coupling map size = %d", len(p.CouplingMap))
	}
	if p.DigitalTwin {
		t.Error("real device flagged as twin")
	}
	if !NewDevice(device.NewTwin20Q(1), nil).Properties().DigitalTwin {
		t.Error("twin not flagged")
	}
}

func TestTargetCarriesLiveFidelities(t *testing.T) {
	qpu := device.New20Q(2)
	d := NewDevice(qpu, nil)
	before := d.Target()
	qpu.AdvanceDrift(24 * 14)
	after := d.Target()
	meanBefore, meanAfter := 0.0, 0.0
	for q := 0; q < 20; q++ {
		meanBefore += before.F1Q[q]
		meanAfter += after.F1Q[q]
	}
	if meanAfter >= meanBefore {
		t.Error("Target should reflect drifted fidelities")
	}
	if err := after.Validate(); err != nil {
		t.Errorf("target invalid: %v", err)
	}
	if len(after.FCZ) != 31 {
		t.Errorf("FCZ entries = %d, want 31", len(after.FCZ))
	}
}

// TestTargetMemoisedPerEpoch: within one calibration epoch every caller
// shares one Epoch and so one Target; a drift advance or a recalibration
// publishes a new Epoch, numbered next, with a new Target.
func TestTargetMemoisedPerEpoch(t *testing.T) {
	qpu := device.New20Q(4)
	d := NewDevice(qpu, nil)
	first := qpu.Epoch()
	if qpu.Epoch() != first || d.Target() != first.Target || d.Target() != d.Target() {
		t.Errorf("epoch %d: a second read returned a different epoch or target", first.Num)
	}
	for _, step := range []struct {
		name string
		tick func()
	}{
		{"AdvanceDrift", func() { qpu.AdvanceDrift(1) }},
		{"Recalibrate", func() { qpu.Recalibrate(false) }},
	} {
		prev := qpu.Epoch()
		step.tick()
		next := qpu.Epoch()
		if next == prev || next.Num != prev.Num+1 || next.Target == prev.Target || next.Calibration == prev.Calibration {
			t.Errorf("%s kept the epoch or its target (epochs %d -> %d)", step.name, prev.Num, next.Num)
		}
		if d.Target() != next.Target || qpu.Epoch() != next {
			t.Errorf("%s: reads did not settle on epoch %d", step.name, next.Num)
		}
	}
}

func TestTargetUsableByTranspiler(t *testing.T) {
	d := NewDevice(device.New20Q(3), nil)
	res, err := transpile.Transpile(circuit.GHZ(8), d.Target(), transpile.Options{
		Placement: transpile.PlaceFidelityAware,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The JIT-compiled circuit must execute directly on the device.
	if _, err := d.QPU().Execute(res.Circuit, 50); err != nil {
		t.Fatalf("JIT output not executable: %v", err)
	}
}

func TestCollectPublishesFigure4Series(t *testing.T) {
	store := telemetry.NewStore(0)
	d := NewDevice(device.New20Q(4), store)
	poller := telemetry.NewPoller(store)
	poller.Register(d)
	poller.Poll(0)
	poller.Poll(3600)
	for _, sensor := range []string{"fidelity_1q", "fidelity_readout", "fidelity_cz"} {
		if got := store.Count(sensor); got != 2 {
			t.Errorf("%s samples = %d, want 2", sensor, got)
		}
	}
	latest, ok := store.Latest("fidelity_1q")
	if !ok || latest.Value < 0.99 {
		t.Errorf("fidelity_1q latest = %+v", latest)
	}
	if got := store.Count("qubit_07_f1q"); got != 2 {
		t.Errorf("per-qubit sensor samples = %d, want 2", got)
	}
}

func TestCalibrationSnapshotIsolated(t *testing.T) {
	qpu := device.New20Q(5)
	d := NewDevice(qpu, nil)
	snap := d.Calibration()
	snap.Qubits[0].F1Q = 0.1
	if d.Calibration().Qubits[0].F1Q == 0.1 {
		t.Error("Calibration() returned a live reference, want a snapshot")
	}
}
