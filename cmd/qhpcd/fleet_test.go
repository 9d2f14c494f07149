package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os/exec"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/fleet"
	"repro/internal/qrm"
)

// TestServedFleetMatchesCommissioning: the daemon's primary is the QPU a
// commissioned center serves — same calibration, same epoch number — and
// its clock starts where commissioning ended. A cryo or drift change that
// moves the cooldown fails here first.
func TestServedFleetMatchesCommissioning(t *testing.T) {
	sites := []facility.Site{
		{Name: "ground-floor", Env: facility.NoisyUrban(), DeliveryWidthCM: 120, FloorLoadKgM2: 1500, CellTowerDistM: 300, FluorescentM: 4},
		{Name: "basement", Env: facility.Quiet(), DeliveryWidthCM: 120, FloorLoadKgM2: 1500, CellTowerDistM: 800, FluorescentM: 6},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, twin := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/twin=%v", seed, twin), func(t *testing.T) {
				c, err := core.New(core.Config{Seed: seed, Redundant: true, DigitalTwin: twin})
				if err != nil {
					t.Fatal(err)
				}
				days, err := c.CommissionFast(sites, facility.SurveyConfig{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if days != commissionedDay {
					t.Errorf("commissioning took %v days; the fleet clock starts at %v (cooldownHours = %d)",
						days, commissionedDay, cooldownHours)
				}
				f, err := buildFleet(seed, twin, 1, 1, "", 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Stop()
				dev, err := f.DeviceHandle(f.Devices()[0])
				if err != nil {
					t.Fatal(err)
				}
				served := dev.QPU()
				if got, want := served.Epoch().Num, c.QPU.Epoch().Num; got != want {
					t.Errorf("served epoch %d, commissioned epoch %d", got, want)
				}
				got, err := json.Marshal(served.Calibration())
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(c.QPU.Calibration())
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("served calibration differs from the commissioned one (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}

// TestBuildFleet: the primary leads the roster, siblings follow with their
// shapes, and every device carries its own staggered maintenance plan.
func TestBuildFleet(t *testing.T) {
	f, err := buildFleet(5, true, 4, 2, "best-fidelity", 90)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	names := f.Devices()
	want := []string{"garnet-20-twin", "sibling-01-4x4", "sibling-02-3x4", "sibling-03-5x5"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("roster %v, want %v", names, want)
	}
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

	id, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(4), Shots: 20, User: "qhpcd"}, fleet.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := f.Wait(id)
	if err != nil || j.Status != fleet.JobDone || j.Device == "" || len(j.Result.Counts) == 0 {
		t.Fatalf("job through the built fleet: %+v, %v", j, err)
	}
}

func TestBuildFleetValidation(t *testing.T) {
	if _, err := buildFleet(1, true, 0, 1, "", 0); err == nil {
		t.Error("zero devices should fail")
	}
	if _, err := buildFleet(1, true, 2, 1, "warp", 0); err == nil {
		t.Error("bad policy should fail")
	}
}

// TestSimClockStartsAtCommissioning: the -sim-rate clock moves forward
// from the day the fleet was built on, so a job's submit_time never falls
// back across the first tick.
func TestSimClockStartsAtCommissioning(t *testing.T) {
	f, err := buildFleet(1, true, 1, 1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	run := func() float64 {
		t.Helper()
		id, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(2), Shots: 5}, fleet.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j, err := f.Wait(id)
		if err != nil || j.Result == nil {
			t.Fatalf("job: %+v, %v", j, err)
		}
		return j.Result.SubmitTime
	}
	first := run()
	if first != commissionedDay*86400 {
		t.Fatalf("first submit_time %v, want %v", first, commissionedDay*86400)
	}

	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		runClock(ctx, f, commissionedDay, 1, 5*time.Millisecond)
		close(stopped)
	}()
	defer func() { cancel(); <-stopped }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		next := run()
		if next < first {
			t.Fatalf("submit_time went back from %v to %v across a clock tick", first, next)
		}
		if next > first {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the clock never ticked")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCheckFlags(t *testing.T) {
	type values struct {
		workers                        int
		simRate, maintDays, tenantRate float64
		tenantQueue, highWater         int
	}
	ok := values{workers: 4}
	cases := []struct {
		name string
		set  func(*values)
		bad  bool
	}{
		{"defaults", func(*values) {}, false},
		{"all on", func(v *values) {
			v.simRate, v.maintDays, v.tenantRate, v.tenantQueue, v.highWater = 2, 30, 5, 10, 100
		}, false},
		{"zero workers", func(v *values) { v.workers = 0 }, true},
		{"negative sim-rate", func(v *values) { v.simRate = -1 }, true},
		{"NaN sim-rate", func(v *values) { v.simRate = math.NaN() }, true},
		{"Inf sim-rate", func(v *values) { v.simRate = math.Inf(1) }, true},
		{"negative maintenance-days", func(v *values) { v.maintDays = -30 }, true},
		{"NaN maintenance-days", func(v *values) { v.maintDays = math.NaN() }, true},
		{"negative tenant-rate", func(v *values) { v.tenantRate = -0.5 }, true},
		{"-Inf tenant-rate", func(v *values) { v.tenantRate = math.Inf(-1) }, true},
		{"negative tenant-queue", func(v *values) { v.tenantQueue = -1 }, true},
		{"negative queue-high-water", func(v *values) { v.highWater = -1 }, true},
	}
	for _, tc := range cases {
		v := ok
		tc.set(&v)
		err := checkFlags(v.workers, v.simRate, v.maintDays, v.tenantRate, v.tenantQueue, v.highWater)
		if (err != nil) != tc.bad {
			t.Errorf("%s: checkFlags = %v, want error %v", tc.name, err, tc.bad)
		}
	}
}

// TestDaemonDoesNotCommission: the daemon serves a fleet; the site survey,
// the cooldown, the center that runs them and the rest of the paper's
// reproduction packages stay out of its binary. It walks every package the
// daemon links (go list -deps, non-test imports) and names the chain that
// reaches a banned one.
func TestDaemonDoesNotCommission(t *testing.T) {
	banned := map[string]bool{}
	for _, pkg := range []string{"core", "ops", "facility", "cryo", "dsp", "calib", "hpc",
		"hybrid", "mitigation", "netmodel", "onboarding", "scenario"} {
		banned["repro/internal/"+pkg] = true
	}
	out, err := exec.Command("go", "list", "-deps", "-f", "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	imports := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		imports[fields[0]] = fields[1:]
	}
	const daemon = "repro/cmd/qhpcd"
	if _, ok := imports[daemon]; !ok || len(imports) < 10 {
		t.Fatalf("go list saw %d packages and no %s", len(imports), daemon)
	}
	// Breadth-first from the daemon: via[p] is the package that first
	// imported p, so each banned package is reported with its shortest
	// chain and with every linked package that imports it.
	via := map[string]string{daemon: ""}
	importedBy := map[string][]string{}
	for queue := []string{daemon}; len(queue) > 0; queue = queue[1:] {
		for _, dep := range imports[queue[0]] {
			importedBy[dep] = append(importedBy[dep], queue[0])
			if _, seen := via[dep]; !seen {
				via[dep] = queue[0]
				queue = append(queue, dep)
			}
		}
	}
	var reached []string
	for pkg := range banned {
		if _, ok := via[pkg]; ok {
			reached = append(reached, pkg)
		}
	}
	sort.Strings(reached)
	for _, pkg := range reached {
		chain := []string{pkg}
		for p := via[pkg]; p != ""; p = via[p] {
			chain = append([]string{p}, chain...)
		}
		sort.Strings(importedBy[pkg])
		t.Errorf("the daemon links %s (%s), imported by %s",
			pkg, strings.Join(chain, " -> "), strings.Join(importedBy[pkg], ", "))
	}
}
