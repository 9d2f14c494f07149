package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/ops"
	"repro/internal/qdmi"
)

// Multi-QPU integration: the paper's MQSS/QDMI split (§2.6) exists so one
// HPC-side scheduler can serve many heterogeneous backends. BuildFleet puts
// the center into that shape: the center's primary QPU becomes fleet device
// 0 — the fleet owns its only dispatch manager — and N-1 simulated siblings
// with different grid shapes, seeds (hence calibration quality), and drift
// histories join it. The fleet registers as a DCDB collector on the
// center's poller, so per-device routing telemetry lands in the same store
// as cryo and power data.

// FleetConfig parameterizes BuildFleet.
type FleetConfig struct {
	// Devices is the total backend count including the center's primary QPU
	// (minimum 1).
	Devices int
	// WorkersPerDevice sizes each backend's private dispatch pool
	// (default 4).
	WorkersPerDevice int
	// Policy is the routing policy (default best-fidelity).
	Policy fleet.Policy
	// MaintenanceEvery attaches a §3.4 maintenance plan to every device,
	// with windows every N days staggered across the fleet so siblings never
	// drain simultaneously. Zero disables plan attachment.
	MaintenanceEveryDays float64
	// CampaignDays bounds the maintenance plan horizon (default 365).
	CampaignDays int
}

// siblingShapes are the grid geometries the simulated fleet cycles through
// after the primary 4x5 device; heterogeneous widths exercise the router's
// width-fit term.
var siblingShapes = []struct{ rows, cols int }{
	{4, 4}, {3, 4}, {5, 5}, {3, 3}, {4, 5},
}

// BuildFleet assembles the center's fleet scheduler over its QPU plus
// simulated siblings; it is the scheduler LocalClient and RESTHandler serve
// and Advance takes the primary offline in, so it can be built only once.
// While the center is not operational the primary joins failed (siblings
// still serve). The returned scheduler owns its device pools; call Stop on
// shutdown.
func (c *Center) BuildFleet(cfg FleetConfig) (*fleet.Scheduler, error) {
	if c.fleet != nil {
		return nil, fmt.Errorf("core: fleet already built (%d devices)", len(c.fleet.Devices()))
	}
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("core: fleet needs >= 1 devices, got %d", cfg.Devices)
	}
	if cfg.WorkersPerDevice == 0 {
		cfg.WorkersPerDevice = 4
	}
	if cfg.Policy == "" {
		cfg.Policy = fleet.PolicyBestFidelity
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.CampaignDays == 0 {
		cfg.CampaignDays = 365
	}
	f := fleet.New(cfg.Policy, c.Store)
	if err := f.AddDevice(c.QPU.Name(), c.QDMI, cfg.WorkersPerDevice); err != nil {
		return nil, err
	}
	for i := 1; i < cfg.Devices; i++ {
		shape := siblingShapes[(i-1)%len(siblingShapes)]
		name := fmt.Sprintf("sibling-%02d-%dx%d", i, shape.rows, shape.cols)
		qpu, err := device.New(device.Config{
			Name: name, Rows: shape.rows, Cols: shape.cols,
			Seed:        c.cfg.Seed + int64(100*i),
			DigitalTwin: c.cfg.DigitalTwin,
		})
		if err != nil {
			f.Stop()
			return nil, fmt.Errorf("core: building fleet sibling %d: %w", i, err)
		}
		// Distinct drift histories: each sibling has aged a different number
		// of hours since its last full calibration, so the router sees a
		// genuinely heterogeneous calibration landscape.
		qpu.AdvanceDrift(float64(6 * i))
		if err := f.AddDevice(name, qdmi.NewDevice(qpu, c.Store), cfg.WorkersPerDevice); err != nil {
			f.Stop()
			return nil, err
		}
	}
	if cfg.MaintenanceEveryDays > 0 {
		names := f.Devices()
		for i, name := range names {
			plan := ops.MaintenancePlan(cfg.CampaignDays, cfg.MaintenanceEveryDays)
			// Stagger windows so the fleet never fully drains: shift each
			// device's plan by a fraction of the interval.
			shift := cfg.MaintenanceEveryDays * float64(i) / float64(len(names)+1)
			for w := range plan {
				plan[w].StartDay += shift
			}
			// The stagger can push the final window past the nominal horizon
			// by at most one interval; widen the validation bound to match.
			if err := ops.ValidatePlan(plan, cfg.CampaignDays+int(cfg.MaintenanceEveryDays)+2); err != nil {
				f.Stop()
				return nil, fmt.Errorf("core: staggered maintenance plan for %s: %w", name, err)
			}
			if err := f.SetMaintenancePlan(name, plan); err != nil {
				f.Stop()
				return nil, err
			}
		}
	}
	// DCDB integration (Fig. 3): the fleet's gauges — among them every
	// device's dispatch-pipeline health (cache effectiveness, tail latency)
	// — ride the center poller, the §3.1 "without altering workflows"
	// dissemination extended to the QRM.
	c.Poll.Register(f)
	c.fleet = f
	f.AdvanceTo(c.simTime / 86400)
	if !c.Operational() {
		c.setQPUOnline(false)
	}
	return f, nil
}
