package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/mqss"
	"repro/internal/qrm"
)

func init() { register("table", probeTable) }

// tableJobs is the size of the job table the read handlers are timed
// against, and over which retained bytes per job are taken: about what the
// seed daemon holds after seven seconds of hybrid-loop.
const tableJobs = 10000

// probeTable fills a storeless fleet with tableJobs finished jobs — GHZ(3) x
// 10 shots, the cheapest job that carries a circuit and counts, the same on
// every workload — then measures what keeping them costs (heap in use after
// GC, per job) and what reading beside them costs (GET one job, GET a page).
func probeTable(e *env) error {
	f, err := newFleet()
	if err != nil {
		return err
	}
	defer f.Stop()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	ghz := circuit.New(3, "ghz-3").H(0).CNOT(0, 1).CNOT(1, 2)
	ids := make([]int, tableJobs)
	for k := range ids {
		id, err := f.Submit(qrm.Request{Circuit: ghz, Shots: 10, User: fmt.Sprintf("u%d", k%8)}, fleet.SubmitOptions{})
		if err != nil {
			return err
		}
		ids[k] = id
	}
	for _, id := range ids {
		if _, err := f.WaitContext(context.Background(), id); err != nil {
			return err
		}
	}
	e.metrics["fleet.retained_bytes_per_job"] = (float64(heap()) - float64(before)) / tableJobs

	srv := mqss.NewFleetServer(f)
	get := func(url string) (time.Duration, error) {
		r := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, r)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("GET %s answered %d: %.200s", url, rec.Code, rec.Body.String())
		}
		return d, nil
	}
	var one, page []time.Duration
	for k := 0; k < 200; k++ {
		d, err := get(fmt.Sprintf("/api/v2/jobs/j-%d", ids[(k*53)%tableJobs]))
		if err != nil {
			return err
		}
		one = append(one, d)
		if d, err = get(fmt.Sprintf("/api/v2/jobs?limit=20&user=u%d", k%8)); err != nil {
			return err
		}
		page = append(page, d)
	}
	e.metrics["mqss.get_job_us_p50"] = p50us(one)
	e.metrics["mqss.list_jobs_us_p50"] = p50us(page)
	return nil
}
