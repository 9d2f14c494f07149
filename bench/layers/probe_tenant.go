package main

import (
	"fmt"
	"time"

	"repro/internal/tenant"
)

func init() { register("tenant", probeTenant) }

// probeTenant times the token-bucket gate a submit passes when -tenant-rate
// is on, across 64 users. The workloads run with admission off (the shipped
// default), so this is the price of turning it on, not a share of
// job_ms_p50.
func probeTenant(e *env) error {
	const users, calls = 64, 200000
	l := tenant.NewLimiter(1e9, 1<<30) // never refuses
	names := make([]string, users)
	for i := range names {
		names[i] = fmt.Sprintf("u%d", i)
	}
	t0 := time.Now()
	for k := 0; k < calls; k++ {
		if ok, _ := l.Allow(names[k%users]); !ok {
			return fmt.Errorf("limiter refused at call %d", k)
		}
	}
	e.metrics["tenant.allow_ns"] = float64(time.Since(t0)) / calls
	return nil
}
