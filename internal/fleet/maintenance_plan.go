package fleet

import (
	"fmt"
	"sort"
)

// Preventive maintenance (§3.4): a one-day procedure roughly every six
// months — flushing the liquid-nitrogen system, plus age-dependent tasks
// such as UPS battery checks and tip-seal replacement on the cryo pumps.
// Longer windows carry control software/firmware upgrades. The schedule is
// coordinated with the HPC center to minimize disruption (the same lesson-2
// control the calibration slots get).

// MaintenanceTask identifies one §3.4 activity.
type MaintenanceTask string

const (
	TaskLN2Flush        MaintenanceTask = "ln2-flush"
	TaskUPSBatteryCheck MaintenanceTask = "ups-battery-check"
	TaskTipSealReplace  MaintenanceTask = "tip-seal-replacement"
	TaskSoftwareUpgrade MaintenanceTask = "control-software-upgrade"
)

// MaintenanceWindow is one planned service interval.
type MaintenanceWindow struct {
	StartDay float64
	Days     float64
	Tasks    []MaintenanceTask
}

// MaintenancePlan generates the §3.4 schedule for a campaign of the given
// length: a one-day preventive window every intervalDays (default 182 ≈ six
// months), always including the LN2 flush; the UPS battery check joins
// every second window, tip seals every fourth, and a software upgrade
// extends every third window to two days.
func MaintenancePlan(campaignDays int, intervalDays float64) []MaintenanceWindow {
	if intervalDays <= 0 {
		intervalDays = 182
	}
	var plan []MaintenanceWindow
	n := 0
	for day := intervalDays; day < float64(campaignDays); day += intervalDays {
		n++
		w := MaintenanceWindow{
			StartDay: day,
			Days:     1,
			Tasks:    []MaintenanceTask{TaskLN2Flush},
		}
		if n%2 == 0 {
			w.Tasks = append(w.Tasks, TaskUPSBatteryCheck)
		}
		if n%4 == 0 {
			w.Tasks = append(w.Tasks, TaskTipSealReplace)
		}
		if n%3 == 0 {
			w.Tasks = append(w.Tasks, TaskSoftwareUpgrade)
			w.Days = 2
		}
		plan = append(plan, w)
	}
	return plan
}

// TotalMaintenanceDays sums the planned service time.
func TotalMaintenanceDays(plan []MaintenanceWindow) float64 {
	total := 0.0
	for _, w := range plan {
		total += w.Days
	}
	return total
}

// ValidatePlan checks that windows are ordered and non-overlapping and fit
// the campaign.
func ValidatePlan(plan []MaintenanceWindow, campaignDays int) error {
	sorted := append([]MaintenanceWindow(nil), plan...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartDay < sorted[j].StartDay })
	prevEnd := 0.0
	for i, w := range sorted {
		if w.Days <= 0 {
			return fmt.Errorf("fleet: maintenance window %d has non-positive duration", i)
		}
		if w.StartDay < prevEnd {
			return fmt.Errorf("fleet: maintenance window %d overlaps the previous one", i)
		}
		if w.StartDay+w.Days > float64(campaignDays) {
			return fmt.Errorf("fleet: maintenance window %d extends past the campaign", i)
		}
		if len(w.Tasks) == 0 {
			return fmt.Errorf("fleet: maintenance window %d has no tasks", i)
		}
		prevEnd = w.StartDay + w.Days
	}
	return nil
}

// MaintenanceCoverage reports which tasks the plan performs at least once —
// used to assert the §3.4 inventory is exercised over a long campaign.
func MaintenanceCoverage(plan []MaintenanceWindow) map[MaintenanceTask]int {
	out := make(map[MaintenanceTask]int)
	for _, w := range plan {
		for _, task := range w.Tasks {
			out[task]++
		}
	}
	return out
}
