package main

import (
	"context"
	"runtime"
	"time"
)

func init() { register("device", probeDevice) }

// probeDevice times QPU.ExecuteCtx on native circuits: engine compile (or
// its cache), the noisy simulation and the readout model.
func probeDevice(e *env) error {
	qpu, _, err := newPrimary()
	if err != nil {
		return err
	}
	ctx := context.Background()
	var took []time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, j := range e.jobs {
		native, err := e.native(i)
		if err != nil {
			return err
		}
		d, err := e.timed(i, spanDevice, spanFleet, func() error {
			_, err := qpu.ExecuteCtx(ctx, native, j.Shots)
			return err
		})
		if err != nil {
			return err
		}
		took = append(took, d)
	}
	runtime.ReadMemStats(&after)
	e.metrics["device.execute_us_p50"] = p50us(took)
	e.metrics["device.allocs_per_job"] = float64(after.Mallocs-before.Mallocs) / float64(len(e.jobs))
	return nil
}
