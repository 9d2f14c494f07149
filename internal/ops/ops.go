// Package ops runs the daily-operations campaign of Section 3 on a
// commissioned core.Center: qubit parameters drift, the scheduler-controlled
// automatic calibration policy keeps fidelities in band (Figure 4's 146-day
// series), the cryogenic plant reacts to injected power/cooling outages
// (§3.5), and availability is accounted for the way an HPC center would
// (§3.2's ">100 days of continuous operation").
package ops

import (
	"fmt"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/cryo"
	"repro/internal/telemetry"
)

// FidelityPoint is one point of the Figure 4 series.
type FidelityPoint struct {
	Day      float64
	F1Q      float64
	FReadout float64
	FCZ      float64
}

// OutageKind classifies injected faults.
type OutageKind int

const (
	OutagePower OutageKind = iota
	OutageCoolingWater
)

func (k OutageKind) String() string {
	if k == OutagePower {
		return "power"
	}
	return "cooling-water"
}

// OutageEvent describes an injected fault.
type OutageEvent struct {
	Kind     OutageKind
	StartDay float64
	// DurationHours the fault persists before repair.
	DurationHours float64
}

// Config parameterizes a campaign.
type Config struct {
	Days int
	Seed int64
	// Policy controls recalibration cadence; nil uses the default
	// daily-quick / weekly-full policy.
	Policy *calib.Policy
	// Redundant enables redundant power feeds + UPS and a redundant
	// cooling-water loop (lesson 3 ablation).
	Redundant bool
	// Outages to inject.
	Outages []OutageEvent
	// SampleEveryHours controls the fidelity series cadence (default 24).
	SampleEveryHours float64
}

// Report is the outcome of a campaign.
type Report struct {
	// Series is the Figure 4 reproduction.
	Series []FidelityPoint
	// Quick/Full count executed procedures.
	QuickCals, FullCals int
	// CalibrationHours is total time spent calibrating.
	CalibrationHours float64
	// DowntimeHours is time the QPU was unavailable (calibration excluded,
	// counted separately, matching the paper's framing of calibration as
	// schedulable maintenance rather than failure).
	DowntimeHours float64
	// AvailableFraction = 1 - (downtime+calibration)/total.
	AvailableFraction float64
	// UnattendedDays is the longest stretch without human intervention
	// (outage repairs are the only human actions in the model).
	UnattendedDays float64
	// WarmupsAbove1K counts calibration-loss events (§3.5).
	WarmupsAbove1K int
	// CooldownHours spent re-cooling after outages.
	CooldownHours float64
}

// Simulator runs a campaign on a commissioned core.Center: the center steps
// the plant, drifts and recalibrates the QPU and polls telemetry; the
// campaign injects and repairs faults, tallies the report and samples the
// series.
type Simulator struct {
	cfg    Config
	center *core.Center
}

// New builds the campaign's center.
func New(cfg Config) (*Simulator, error) {
	if cfg.Days < 1 {
		return nil, fmt.Errorf("ops: campaign needs >= 1 day, got %d", cfg.Days)
	}
	if cfg.SampleEveryHours == 0 {
		cfg.SampleEveryHours = 24
	}
	c, err := core.NewCommissioned(core.Config{Seed: cfg.Seed, Redundant: cfg.Redundant})
	if err != nil {
		return nil, err
	}
	if cfg.Policy != nil {
		c.Policy = cfg.Policy
	}
	return &Simulator{cfg: cfg, center: c}, nil
}

// Store exposes the telemetry the center's poller gathered in the campaign.
func (s *Simulator) Store() *telemetry.Store { return s.center.Store }

// Run executes the campaign with an hourly step.
func (s *Simulator) Run() (*Report, error) {
	rep := &Report{}
	const stepHours = 1.0
	totalHours := float64(s.cfg.Days) * 24
	c := s.center

	type activeOutage struct {
		ev      OutageEvent
		endHour float64
	}
	var outages []activeOutage
	for _, ev := range s.cfg.Outages {
		outages = append(outages, activeOutage{ev: ev, endHour: ev.StartDay*24 + ev.DurationHours})
	}

	lastSample := -s.cfg.SampleEveryHours
	unattendedStart := 0.0

	for hour := 0.0; hour < totalHours; hour += stepHours {
		day := hour / 24

		// --- Fault injection & repair.
		for i := range outages {
			o := &outages[i]
			startHour := o.ev.StartDay * 24
			if hour >= startHour && hour < o.endHour {
				// A fault takes out one feed; redundancy (lesson 3) is
				// precisely the ability to survive single-feed failures.
				switch o.ev.Kind {
				case OutagePower:
					c.Power.Feeds()[0].Fail()
				case OutageCoolingWater:
					c.Water.Feeds()[0].Fail()
				}
			}
			if hour >= o.endHour && hour < o.endHour+stepHours {
				// Repair is a human intervention.
				switch o.ev.Kind {
				case OutagePower:
					for _, f := range c.Power.Feeds() {
						f.Restore()
					}
				case OutageCoolingWater:
					for _, f := range c.Water.Feeds() {
						f.Restore()
					}
				}
				if span := day - unattendedStart; span > rep.UnattendedDays {
					rep.UnattendedDays = span
				}
				unattendedStart = day
			}
		}

		// --- One hour of the center.
		wasSafe := c.Cryo.CalibrationSafe()
		proc := c.Advance(stepHours * 3600)
		if wasSafe && !c.Cryo.CalibrationSafe() {
			rep.WarmupsAbove1K++
		}
		if !c.Operational() {
			rep.DowntimeHours += stepHours
			if c.Cryo.Cooling() == cryo.CoolingOn {
				rep.CooldownHours += stepHours
			}
		}
		switch proc {
		case calib.ProcedureFull:
			rep.FullCals++
		case calib.ProcedureQuick:
			rep.QuickCals++
		}
		rep.CalibrationHours += proc.DurationMinutes() / 60

		// --- Series sampling.
		if hour-lastSample >= s.cfg.SampleEveryHours {
			lastSample = hour
			cal := c.QPU.Calibration()
			rep.Series = append(rep.Series, FidelityPoint{Day: day, F1Q: cal.MeanF1Q(), FReadout: cal.MeanFReadout(), FCZ: cal.MeanFCZ()})
		}
	}
	if span := float64(s.cfg.Days) - unattendedStart; span > rep.UnattendedDays {
		rep.UnattendedDays = span
	}
	rep.AvailableFraction = 1 - (rep.DowntimeHours+rep.CalibrationHours)/totalHours
	return rep, nil
}

// SeriesStats summarizes a fidelity series for assertions and EXPERIMENTS.md.
type SeriesStats struct {
	MeanF1Q, MinF1Q           float64
	MeanFReadout, MinFReadout float64
	MeanFCZ, MinFCZ           float64
}

// Stats computes series summary statistics.
func (r *Report) Stats() SeriesStats {
	st := SeriesStats{MinF1Q: 1, MinFReadout: 1, MinFCZ: 1}
	if len(r.Series) == 0 {
		return SeriesStats{}
	}
	for _, p := range r.Series {
		st.MeanF1Q += p.F1Q
		st.MeanFReadout += p.FReadout
		st.MeanFCZ += p.FCZ
		if p.F1Q < st.MinF1Q {
			st.MinF1Q = p.F1Q
		}
		if p.FReadout < st.MinFReadout {
			st.MinFReadout = p.FReadout
		}
		if p.FCZ < st.MinFCZ {
			st.MinFCZ = p.FCZ
		}
	}
	n := float64(len(r.Series))
	st.MeanF1Q /= n
	st.MeanFReadout /= n
	st.MeanFCZ /= n
	return st
}
