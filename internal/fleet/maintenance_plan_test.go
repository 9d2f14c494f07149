package fleet

import "testing"

func TestMaintenancePlanSixMonthCadence(t *testing.T) {
	// Two years of operation: windows at ~day 182, 364, 546, 728.
	plan := MaintenancePlan(750, 0)
	if len(plan) != 4 {
		t.Fatalf("plan has %d windows, want 4 over two years", len(plan))
	}
	if err := ValidatePlan(plan, 750); err != nil {
		t.Fatal(err)
	}
	cov := MaintenanceCoverage(plan)
	// Every window flushes LN2 (§3.4).
	if cov[TaskLN2Flush] != 4 {
		t.Errorf("LN2 flush count = %d, want every window", cov[TaskLN2Flush])
	}
	// Battery checks every second window, tip seals every fourth.
	if cov[TaskUPSBatteryCheck] != 2 {
		t.Errorf("UPS battery checks = %d, want 2", cov[TaskUPSBatteryCheck])
	}
	if cov[TaskTipSealReplace] != 1 {
		t.Errorf("tip seal replacements = %d, want 1", cov[TaskTipSealReplace])
	}
	if cov[TaskSoftwareUpgrade] != 1 {
		t.Errorf("software upgrades = %d, want 1", cov[TaskSoftwareUpgrade])
	}
}

func TestMaintenanceTotalDaysSmall(t *testing.T) {
	plan := MaintenancePlan(750, 0)
	total := TotalMaintenanceDays(plan)
	// 3 one-day windows + 1 two-day (software upgrade): 5 days / 750.
	if total != 5 {
		t.Errorf("total maintenance = %g days, want 5", total)
	}
	// Planned maintenance is under 1% of the campaign — consistent with
	// the paper's high-availability framing.
	if total/750 > 0.01 {
		t.Errorf("maintenance fraction %.4f exceeds 1%%", total/750)
	}
}

func TestMaintenancePlanShortCampaignIsEmpty(t *testing.T) {
	// The 146-day Figure 4 campaign contains no six-month window.
	plan := MaintenancePlan(146, 0)
	if len(plan) != 0 {
		t.Errorf("146-day campaign should need no preventive maintenance, got %d windows", len(plan))
	}
}

func TestValidatePlanRejectsBadPlans(t *testing.T) {
	bad := []MaintenanceWindow{{StartDay: 10, Days: 0, Tasks: []MaintenanceTask{TaskLN2Flush}}}
	if err := ValidatePlan(bad, 100); err == nil {
		t.Error("zero-duration window should fail")
	}
	overlap := []MaintenanceWindow{
		{StartDay: 10, Days: 2, Tasks: []MaintenanceTask{TaskLN2Flush}},
		{StartDay: 11, Days: 1, Tasks: []MaintenanceTask{TaskLN2Flush}},
	}
	if err := ValidatePlan(overlap, 100); err == nil {
		t.Error("overlapping windows should fail")
	}
	past := []MaintenanceWindow{{StartDay: 99.5, Days: 1, Tasks: []MaintenanceTask{TaskLN2Flush}}}
	if err := ValidatePlan(past, 100); err == nil {
		t.Error("window past campaign end should fail")
	}
	empty := []MaintenanceWindow{{StartDay: 10, Days: 1}}
	if err := ValidatePlan(empty, 100); err == nil {
		t.Error("window without tasks should fail")
	}
}

func TestCustomInterval(t *testing.T) {
	plan := MaintenancePlan(100, 30)
	if len(plan) != 3 {
		t.Errorf("30-day interval over 100 days: %d windows, want 3", len(plan))
	}
	if err := ValidatePlan(plan, 100); err != nil {
		t.Fatal(err)
	}
}
