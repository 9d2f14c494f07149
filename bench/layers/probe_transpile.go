package main

import (
	"time"

	"repro/internal/transpile"
)

func init() { register("transpile", probeTranspile) }

// probeTranspile times the full placement-routing-lowering pipeline against
// the primary device's live target, which is what a transpile-cache miss
// costs the dispatch worker.
func probeTranspile(e *env) error {
	_, dev, err := newPrimary()
	if err != nil {
		return err
	}
	target := dev.Target()
	var took []time.Duration
	for i, j := range e.jobs {
		d, err := e.timed(i, spanTranspile, spanFleet, func() error {
			_, err := transpile.Transpile(j.Circuit, target, transpileOptions)
			return err
		})
		if err != nil {
			return err
		}
		took = append(took, d)
	}
	e.metrics["transpile.transpile_us_p50"] = p50us(took)
	return nil
}
