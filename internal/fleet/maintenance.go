package fleet

import "fmt"

// Maintenance-window draining: each device can carry a §3.4 maintenance
// plan (MaintenancePlan output, or hand-built windows for calibration
// slots). AdvanceTo drives the fleet clock in simulated days: entering a
// window drains the device (it stops claiming; in-flight work finishes), and
// leaving the window restores it. Manual Drain/Fail states are never
// overridden — the operator owns those.

// SetMaintenancePlan attaches (or replaces) a device's maintenance windows.
func (s *Scheduler) SetMaintenancePlan(name string, plan []MaintenanceWindow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.devices[name]
	if !ok {
		return fmt.Errorf("fleet: unknown device %q", name)
	}
	e.maintenance = append([]MaintenanceWindow(nil), plan...)
	return nil
}

// MaintenancePlan returns a copy of a device's attached windows.
func (s *Scheduler) MaintenancePlan(name string) ([]MaintenanceWindow, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.devices[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown device %q", name)
	}
	return append([]MaintenanceWindow(nil), e.maintenance...), nil
}

// inWindow reports whether day falls inside any window of the plan.
func inWindow(plan []MaintenanceWindow, day float64) bool {
	for _, w := range plan {
		if day >= w.StartDay && day < w.StartDay+w.Days {
			return true
		}
	}
	return false
}

// AdvanceTo moves the fleet's simulation clock — the one that stamps job
// records and events — to the given day: devices entering a maintenance
// window drain into DeviceMaintenance, devices whose window has closed
// return to routing. It is idempotent — call it as often as the simulation
// ticks.
func (s *Scheduler) AdvanceTo(day float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nowDay = day
	for _, name := range s.order {
		e := s.devices[name]
		if len(e.maintenance) == 0 {
			continue
		}
		in := inWindow(e.maintenance, day)
		switch {
		case in && e.state == DeviceActive:
			s.setStateLocked(e, DeviceMaintenance)
		case !in && e.state == DeviceMaintenance:
			s.setStateLocked(e, DeviceActive)
		}
	}
}
