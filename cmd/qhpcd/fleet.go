package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
)

// The daemon serves a commissioned center without commissioning one. The
// site survey is a one-time step before deployment and the cooldown a
// multi-day physical event (cmd/sitesurvey and core.Center reproduce both);
// neither changes what a job sees. What commissioning leaves on the QPU is
// its drift history — one AdvanceDrift(1) per simulated cooldown hour — and
// a full calibration once the cryostat reaches base temperature. buildFleet
// replays exactly that, the drift hours in one AdvanceDriftHours (one epoch
// built, not 81), and TestServedFleetMatchesCommissioning holds it
// equal to core.Center.CommissionFast.

// cooldownHours is how long the simulated cryostat takes from warm to base
// temperature; it does not depend on the seed, the device or the facility's
// feed redundancy.
const cooldownHours = 81

// commissionedDay is the simulation day commissioning ends on, where the
// fleet's clock starts: job submit and end times count from it.
const commissionedDay = cooldownHours / 24.0

// siblingShapes are the grid geometries the simulated fleet cycles through
// after the primary 4x5 device; heterogeneous widths exercise the router's
// width-fit term.
var siblingShapes = []struct{ rows, cols int }{
	{4, 4}, {3, 4}, {5, 5}, {3, 3}, {4, 5},
}

// buildFleet assembles the served fleet: the commissioned 20-qubit QPU
// (the noiseless twin with twin set) and devices-1 simulated siblings with
// different grid shapes, seeds and drift histories, each with workers
// dispatch workers, under the named routing policy. maintDays > 0 attaches
// a year of maintenance windows every maintDays days to each device,
// staggered so the fleet never drains at once. The fleet's clock stands at
// commissionedDay. The caller owns the fleet; call Stop on shutdown.
func buildFleet(seed int64, twin bool, devices, workers int, policy string, maintDays float64) (*fleet.Scheduler, error) {
	if devices < 1 {
		return nil, fmt.Errorf("fleet needs >= 1 devices, got %d", devices)
	}
	p, err := fleet.ParsePolicy(policy)
	if err != nil {
		return nil, err
	}
	var primary *device.QPU
	if twin {
		primary = device.NewTwin20Q(seed)
	} else {
		primary = device.New20Q(seed)
	}
	primary.AdvanceDriftHours(cooldownHours)
	primary.Recalibrate(true)

	f := fleet.New(p, nil)
	if err := f.AddDevice(primary.Name(), qdmi.NewDevice(primary, nil), workers); err != nil {
		return nil, err
	}
	for i := 1; i < devices; i++ {
		shape := siblingShapes[(i-1)%len(siblingShapes)]
		name := fmt.Sprintf("sibling-%02d-%dx%d", i, shape.rows, shape.cols)
		qpu, err := device.New(device.Config{
			Name: name, Rows: shape.rows, Cols: shape.cols,
			Seed: seed + int64(100*i), DigitalTwin: twin,
		})
		if err != nil {
			f.Stop()
			return nil, fmt.Errorf("building fleet sibling %d: %w", i, err)
		}
		// Distinct drift histories: each sibling has aged a different number
		// of hours since its last full calibration, so the router sees a
		// genuinely heterogeneous calibration landscape.
		qpu.AdvanceDrift(float64(6 * i))
		if err := f.AddDevice(name, qdmi.NewDevice(qpu, nil), workers); err != nil {
			f.Stop()
			return nil, err
		}
	}
	if maintDays > 0 {
		if err := staggerMaintenance(f, maintDays); err != nil {
			f.Stop()
			return nil, err
		}
	}
	f.AdvanceTo(commissionedDay)
	return f, nil
}

// staggerMaintenance attaches a year of windows every `every` days to each
// device, shifting each device's plan by a fraction of the interval so
// siblings never drain simultaneously.
func staggerMaintenance(f *fleet.Scheduler, every float64) error {
	const campaignDays = 365
	names := f.Devices()
	for i, name := range names {
		plan := fleet.MaintenancePlan(campaignDays, every)
		shift := every * float64(i) / float64(len(names)+1)
		for w := range plan {
			plan[w].StartDay += shift
		}
		// The stagger can push the final window past the nominal horizon by
		// at most one interval; widen the validation bound to match.
		if err := fleet.ValidatePlan(plan, campaignDays+int(every)+2); err != nil {
			return fmt.Errorf("staggered maintenance plan for %s: %w", name, err)
		}
		if err := f.SetMaintenancePlan(name, plan); err != nil {
			return err
		}
	}
	return nil
}

// runClock drives the fleet's simulation clock from startDay at rate
// simulated days per wall-clock second, one step per tick, until ctx ends.
// Maintenance windows open and close on it, and it stamps job times.
func runClock(ctx context.Context, f *fleet.Scheduler, startDay, rate float64, tick time.Duration) {
	t := time.NewTicker(tick)
	defer t.Stop()
	day := startDay
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			day += rate * tick.Seconds()
			f.AdvanceTo(day)
		}
	}
}

// checkFlags refuses the numeric flag values the daemon cannot honour.
// A negative, NaN or infinite rate, interval or bound would otherwise fail
// its "> 0" test and switch the feature off without a word.
func checkFlags(workers int, simRate, maintDays, tenantRate float64, tenantQueue, highWater int) error {
	if workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d (every device runs a live dispatch pool)", workers)
	}
	for _, fl := range []struct {
		name string
		v    float64
	}{
		{"sim-rate", simRate}, {"maintenance-days", maintDays}, {"tenant-rate", tenantRate},
		{"tenant-queue", float64(tenantQueue)}, {"queue-high-water", float64(highWater)},
	} {
		if math.IsNaN(fl.v) || math.IsInf(fl.v, 0) || fl.v < 0 {
			return fmt.Errorf("-%s must be a finite number >= 0, got %v", fl.name, fl.v)
		}
	}
	return nil
}
