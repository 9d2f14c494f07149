package main

import (
	"context"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strconv"
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
// the cooldown and the center that runs them stay out of its own code.
func TestDaemonDoesNotCommission(t *testing.T) {
	forbidden := map[string]bool{}
	for _, pkg := range []string{"core", "facility", "cryo", "hpc", "calib", "dsp"} {
		forbidden["repro/internal/"+pkg] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	scanned := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		scanned++
		for _, imp := range file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if forbidden[p] {
				t.Errorf("%s imports %s; the daemon builds its fleet without commissioning a center",
					fset.Position(imp.Pos()), p)
			}
		}
	}
	if scanned < 2 {
		t.Fatalf("scanned %d non-test files; the scan missed main.go or fleet.go", scanned)
	}
}
