// Package qdmi reproduces the Quantum Device Management Interface (§2.6,
// Fig. 2/3): a narrow query interface through which software tools obtain
// backend-specific metrics — topology, native operations, gate fidelities,
// noise characteristics, resource constraints — at runtime, enabling
// just-in-time adaptation of compilation and scheduling per device.
package qdmi

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/telemetry"
	"repro/internal/transpile"
)

// Properties is the static device description.
type Properties struct {
	Name        string        `json:"name"`
	NumQubits   int           `json:"num_qubits"`
	NativeOps   []string      `json:"native_ops"`
	CouplingMap map[int][]int `json:"coupling_map"`
	DigitalTwin bool          `json:"digital_twin"`
}

// Interface is what compilers and schedulers program against. The paper
// describes it as "a lightweight header-only C interface"; the Go analogue
// is a small method set.
type Interface interface {
	// Properties returns the static device description.
	Properties() Properties
	// Target returns a transpilation target carrying live fidelities.
	Target() *transpile.Target
	// Calibration returns a snapshot of the current calibration record.
	Calibration() *device.Calibration
}

// Device implements Interface over a QPU. It is a telemetry.Collector: a
// poller publishes its calibration metrics into the DCDB store (the
// DCDB/QDMI integration of Fig. 3).
type Device struct {
	qpu *device.QPU
	// props is built once: the topology is immutable, and the scheduler reads
	// the width of every device on each submit.
	props Properties
}

// NewDevice wraps a QPU. The store argument is unused: it stays until the
// layer bench stops passing one.
func NewDevice(qpu *device.QPU, _ *telemetry.Store) *Device {
	return &Device{qpu: qpu, props: Properties{
		Name:        qpu.Name(),
		NumQubits:   qpu.NumQubits(),
		NativeOps:   []string{"prx", "rz", "cz", "measure"},
		CouplingMap: qpu.Topology().CouplingMap(),
		DigitalTwin: qpu.IsTwin(),
	}}
}

// Properties implements Interface. Every call returns the same NativeOps
// slice and CouplingMap: callers must not modify them.
func (d *Device) Properties() Properties { return d.props }

// Target implements Interface: the current calibration epoch's target, so
// that the transpiler's fidelity-aware placement sees the device as it is
// now — the mechanism behind "just-in-time quantum circuit transpilation can
// reduce noise" (§2.6). Every caller within an epoch shares it: do not
// modify it.
func (d *Device) Target() *transpile.Target { return d.qpu.Epoch().Target }

// Calibration implements Interface.
func (d *Device) Calibration() *device.Calibration {
	return d.qpu.Calibration()
}

// QPU exposes the underlying device for execution paths that hold a QDMI
// handle (the QRM).
func (d *Device) QPU() *device.QPU { return d.qpu }

// CollectorName implements telemetry.Collector: the QDMI device doubles as
// a DCDB plugin publishing the Figure 4 fidelity series plus qubit health.
func (d *Device) CollectorName() string { return "qdmi-" + d.qpu.Name() }

// Collect implements telemetry.Collector.
func (d *Device) Collect() map[string]float64 {
	ep := d.qpu.Epoch()
	c := ep.Calibration
	out := map[string]float64{
		"fidelity_1q":       ep.MeanF1Q,
		"fidelity_readout":  ep.MeanFRead,
		"fidelity_cz":       ep.MeanFCZ,
		"calibration_age_h": c.AgeHours,
		"tls_active":        float64(d.qpu.ActiveTLSCount()),
	}
	for q, qc := range c.Qubits {
		out[fmt.Sprintf("qubit_%02d_f1q", q)] = qc.F1Q
		out[fmt.Sprintf("qubit_%02d_t1_us", q)] = qc.T1
	}
	return out
}

var _ Interface = (*Device)(nil)
var _ telemetry.Collector = (*Device)(nil)
