// Package core wires every subsystem into the paper's contribution: a
// co-located, loosely-integrated HPC+QC center. A Center owns the facility
// (power, cooling water), the cryogenic plant, the 20-qubit QPU with its
// calibration lifecycle, the DCDB-style telemetry store, the QDMI device
// handle, the batch scheduler with the QPU as a resource, the fleet
// scheduler (whose first device is that QPU), and the MQSS client/REST
// layer. Commissioning follows the paper's sequence: site
// survey (§2.1) → installation and cooldown (§2.5) → calibration and
// benchmark verification (§3.2) → user operations (§4).
package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/calib"
	"repro/internal/cryo"
	"repro/internal/device"
	"repro/internal/facility"
	"repro/internal/fleet"
	"repro/internal/hpc"
	"repro/internal/mqss"
	"repro/internal/qdmi"
	"repro/internal/telemetry"
)

// Phase tracks the center's lifecycle.
type Phase int

const (
	PhaseSiteSelection Phase = iota
	PhaseInstallation
	PhaseCommissioning
	PhaseOperational
	PhaseOutage
)

func (p Phase) String() string {
	switch p {
	case PhaseSiteSelection:
		return "site-selection"
	case PhaseInstallation:
		return "installation"
	case PhaseCommissioning:
		return "commissioning"
	case PhaseOperational:
		return "operational"
	case PhaseOutage:
		return "outage"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Config parameterizes a center.
type Config struct {
	Seed int64
	// Nodes is the classical cluster size.
	Nodes int
	// Redundant enables redundant power and cooling (lesson 3).
	Redundant bool
	// DigitalTwin builds the center around the noiseless emulator.
	DigitalTwin bool
}

// Center is the integrated HPC+QC installation.
type Center struct {
	cfg   Config
	phase Phase
	site  *facility.Report

	Power  *facility.PowerSystem
	Water  *facility.CoolingWater
	Cryo   *cryo.Cryostat
	QPU    *device.QPU
	QDMI   *qdmi.Device
	Store  *telemetry.Store
	Poll   *telemetry.Poller
	HPC    *hpc.Scheduler
	Policy *calib.Policy

	// fleet is the one scheduler both access paths land in, built by Fleet
	// on first use; its simulation clock follows simTime.
	fleet *fleet.Scheduler
	// handler is the front end both access paths call, built by
	// RESTHandler on first use.
	handler http.Handler

	// calibLost is the §3.5 latch: the stored calibration is void because
	// the QPU was delivered warm or has since crossed 1 K. The first
	// calibration once the QPU is cold again is full, and clears it.
	calibLost bool

	simTime float64 // seconds
}

// New builds a center in the site-selection phase: the cryostat is
// delivered warm, in crates (§2.5), so the QPU holds no valid calibration
// and is offline until commissioning.
func New(cfg Config) (*Center, error) {
	c, err := NewCommissioned(cfg)
	if err != nil {
		return nil, err
	}
	c.phase = PhaseSiteSelection
	c.Cryo = cryo.NewWarm()
	c.calibLost = true
	c.HPC.SetQPUOnline(false)
	return c, nil
}

// NewCommissioned builds a center past commissioning: cold, calibrated and
// online, where an operations campaign starts.
func NewCommissioned(cfg Config) (*Center, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 64
	}
	sched, err := hpc.NewScheduler(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	var popts []facility.PowerOption
	if cfg.Redundant {
		popts = append(popts, facility.WithRedundantFeed(), facility.WithUPS(4*3600))
	}
	var qpu *device.QPU
	if cfg.DigitalTwin {
		qpu = device.NewTwin20Q(cfg.Seed)
	} else {
		qpu = device.New20Q(cfg.Seed)
	}
	store := telemetry.NewStore(0)
	dev := qdmi.NewDevice(qpu, store)
	poller := telemetry.NewPoller(store)
	poller.Register(dev)

	c := &Center{
		cfg:    cfg,
		phase:  PhaseOperational,
		Power:  facility.NewPowerSystem(popts...),
		Water:  facility.NewCoolingWater(18, cfg.Redundant),
		Cryo:   cryo.New(),
		QPU:    qpu,
		QDMI:   dev,
		Store:  store,
		Poll:   poller,
		HPC:    sched,
		Policy: calib.DefaultPolicy(),
	}

	// Register facility collectors so DCDB sees cryo and power data (Fig 3).
	poller.Register(telemetry.FuncCollector{
		Name: "cryo-plant",
		Fn: func() map[string]float64 {
			return map[string]float64{
				"mxc_temp_k":   c.Cryo.QPUTemperature(),
				"stage4k_k":    c.Cryo.Temperature(cryo.Stage4K),
				"ln2_liters":   c.Cryo.LN2Level(),
				"power_kw":     c.Cryo.PowerDrawKW(),
				"water_temp_c": c.Water.Temperature(),
			}
		},
	})
	return c, nil
}

// Phase returns the current lifecycle phase.
func (c *Center) Phase() Phase { return c.phase }

// SiteReport returns the accepted survey (nil before SelectSite).
func (c *Center) SiteReport() *facility.Report { return c.site }

// SelectSite surveys the candidates and commits to the best one. It fails
// if no candidate passes — the paper's process requires an accepted site
// before installation.
func (c *Center) SelectSite(candidates []facility.Site, cfg facility.SurveyConfig) (*facility.Report, error) {
	if c.phase != PhaseSiteSelection {
		return nil, fmt.Errorf("core: site selection already done (phase %s)", c.phase)
	}
	reports, err := facility.RankSites(candidates, cfg)
	if err != nil {
		return nil, err
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("core: no candidate sites")
	}
	best := reports[0]
	if !best.Accepted {
		return best, fmt.Errorf("core: no candidate site passes the Table 1 criteria (best: %s with %d failures)",
			best.Site, best.FailureCount())
	}
	c.site = best
	c.phase = PhaseInstallation
	return best, nil
}

// Install starts the cooldown: the multi-day physical installation has
// finished and active cooling begins. Returns an error if the facility
// cannot support cooling.
func (c *Center) Install() error {
	if c.phase != PhaseInstallation {
		return fmt.Errorf("core: cannot install in phase %s", c.phase)
	}
	if !c.Power.Powered() {
		return fmt.Errorf("core: no electrical power")
	}
	if !c.Water.Healthy() || !c.Water.InWindow() {
		return fmt.Errorf("core: cooling water unavailable or out of the 15-25 °C window")
	}
	c.Cryo.SetCooling(cryo.CoolingOn)
	c.phase = PhaseCommissioning
	return nil
}

// Advance moves the whole center forward by dt seconds: facility dynamics,
// cryogenics, drift, scheduler, telemetry. The QPU serves while cooling runs
// and the cryostat is at base; it goes offline otherwise (§3.5 outage) and
// comes back online, commissioning included, once both hold again. Each
// step the QPU serves, it recalibrates: fully if the calibration was lost
// above 1 K, else as the policy decides. Advance returns the procedure it
// ran (calib.ProcedureNone if none).
func (c *Center) Advance(dt float64) calib.Procedure {
	if dt <= 0 {
		return calib.ProcedureNone
	}
	c.simTime += dt
	c.Power.Advance(dt)
	c.Water.Advance(dt)

	coolingOK := c.Power.Powered() && c.Water.Healthy() && c.Water.InWindow()
	if coolingOK && c.phase != PhaseSiteSelection && c.phase != PhaseInstallation {
		c.Cryo.SetCooling(cryo.CoolingOn)
	} else if !coolingOK {
		c.Cryo.SetCooling(cryo.CoolingOff)
	}
	wasSafe := c.Cryo.CalibrationSafe()
	c.Cryo.Advance(dt)
	if wasSafe && !c.Cryo.CalibrationSafe() {
		c.calibLost = true
	}
	c.QPU.AdvanceDrift(dt / 3600)
	c.Policy.Advance(dt / 3600)
	c.HPC.Advance(dt)
	if c.fleet != nil {
		c.fleet.AdvanceTo(c.simTime / 86400)
	}
	c.Poll.Poll(c.simTime)

	if c.phase == PhaseSiteSelection || c.phase == PhaseInstallation {
		return calib.ProcedureNone
	}
	if !coolingOK || !c.Cryo.AtBase() {
		if c.phase == PhaseOperational {
			c.phase = PhaseOutage
			c.setQPUOnline(false)
		}
		return calib.ProcedureNone
	}
	proc := calib.ProcedureFull
	if !c.calibLost {
		proc = c.Policy.Decide(c.QPU.Calibration().AgeHours, nil)
	}
	c.calibLost = false
	if proc != calib.ProcedureNone {
		c.QPU.Recalibrate(proc == calib.ProcedureFull)
		c.Policy.Ran(proc)
	}
	if c.phase != PhaseOperational {
		c.phase = PhaseOperational
		c.setQPUOnline(true)
	}
	return proc
}

// setQPUOnline is the single control point for the primary QPU's
// availability (lesson 2): it flips the batch scheduler's QPU resource and
// the fleet's routing state together. Offline is a fleet-level Fail — the
// QPU claims nothing, so queued jobs run on siblings, or wait in the queue
// until Recover when there are none, and new submissions are accepted and
// queued the same way.
// Before the fleet exists there is nothing to flip; Fleet reads the phase
// when it builds it.
func (c *Center) setQPUOnline(online bool) {
	c.HPC.SetQPUOnline(online)
	if c.fleet == nil {
		return
	}
	// Fail/Recover only reject unknown names; the primary is registered.
	if online {
		_ = c.fleet.Recover(c.QPU.Name())
	} else {
		_ = c.fleet.Fail(c.QPU.Name())
	}
}

// Operational reports whether the QPU is serving jobs.
func (c *Center) Operational() bool { return c.phase == PhaseOperational }

// Fleet returns the center's scheduler, building it on first use: the
// primary QPU as the one device, four dispatch workers, best-fidelity
// routing. While the center is not operational the QPU joins failed. The
// fleet registers as a DCDB collector on the center's poller, so its
// gauges — among them the device's dispatch-pipeline health — land in the
// same store as cryo and power data (Fig. 3).
func (c *Center) Fleet() *fleet.Scheduler {
	if c.fleet != nil {
		return c.fleet
	}
	f := fleet.New(fleet.PolicyBestFidelity, c.Store)
	if err := f.AddDevice(c.QPU.Name(), c.QDMI, 4); err != nil {
		// A fresh fleet and a named device: only a bug can fail it.
		panic(fmt.Sprintf("core: building the center's fleet: %v", err))
	}
	c.Poll.Register(f)
	c.fleet = f
	f.AdvanceTo(c.simTime / 86400)
	if !c.Operational() {
		c.setQPUOnline(false)
	}
	return f
}

// LocalClient returns the in-HPC accelerator client: it calls the handler
// RESTHandler serves, in-process.
func (c *Center) LocalClient() *mqss.Client { return mqss.NewLocalClient(c.RESTHandler()) }

const pathTelemetry = "/api/v1/telemetry/"

// RESTHandler returns the center's one front end, building it on first use:
// GET /api/v1/telemetry/{sensor} reads the DCDB store (§3.1, transparent
// telemetry dissemination), and every other path goes to one mqss.Server
// over the center's fleet.
func (c *Center) RESTHandler() http.Handler {
	if c.handler == nil {
		mux := http.NewServeMux()
		mux.Handle("/", mqss.NewFleetServer(c.Fleet()))
		mux.HandleFunc(pathTelemetry, c.handleTelemetry)
		c.handler = mux
	}
	return c.handler
}

// handleTelemetry lists the sensors at the route's root and answers one
// sensor's series below it; errors take the v1 shape, {"error": "..."}.
func (c *Center) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	status, body, err := http.StatusOK, []byte(nil), error(nil)
	switch sensor := strings.TrimPrefix(r.URL.Path, pathTelemetry); {
	case r.Method != http.MethodGet:
		status, err = http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method)
	case sensor == "":
		body, err = json.Marshal(map[string][]string{"sensors": c.Store.Sensors()})
	default:
		body, err = c.Store.MarshalSeriesJSON(sensor)
	}
	if err != nil {
		if status == http.StatusOK {
			status = http.StatusInternalServerError
		}
		body, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// RunHealthCheck executes the §3.2 GHZ ladder.
func (c *Center) RunHealthCheck(sizes []int, shots int) (*calib.HealthCheck, error) {
	if !c.Operational() {
		return nil, fmt.Errorf("core: center not operational (phase %s)", c.phase)
	}
	return calib.RunHealthCheck(c.QDMI, sizes, shots)
}

// CommissionFast runs the full commissioning sequence with an accelerated
// clock (hourly steps) and returns the days the cooldown took. Intended for
// examples and tests; production advancing happens via Advance.
func (c *Center) CommissionFast(candidates []facility.Site, scfg facility.SurveyConfig) (float64, error) {
	if _, err := c.SelectSite(candidates, scfg); err != nil {
		return 0, err
	}
	if err := c.Install(); err != nil {
		return 0, err
	}
	hours := 0.0
	for !c.Operational() {
		c.Advance(3600)
		hours++
		if hours > 24*14 {
			return hours / 24, fmt.Errorf("core: commissioning did not converge in 14 days")
		}
	}
	return hours / 24, nil
}
