package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/mqss"
)

func init() { register("mqss", probeMQSS) }

// probeMQSS is the top rung: the v2 submit handler called in process through
// httptest.NewRecorder, so decode, idempotency, submission, the long-poll
// and the response encode are in, and the network is out. The access mode
// follows the workload: ?wait=30s, or the bare async POST of a burst.
func probeMQSS(e *env) error {
	f, _, err := e.workloadFleet("mqss")
	if err != nil {
		return err
	}
	defer f.Stop()
	srv := mqss.NewFleetServer(f)
	url := "/api/v2/jobs?wait=30s"
	if e.w.Burst > 0 {
		url = "/api/v2/jobs"
	}
	var pending []int
	post := func(j job, i int, span, key string, replay bool) (time.Duration, error) {
		r := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(j.body))
		if key != "" {
			r.Header.Set("Idempotency-Key", key)
		}
		rec := httptest.NewRecorder()
		serve := func() error { srv.ServeHTTP(rec, r); return nil }
		var d time.Duration
		if span != "" {
			d, _ = e.timed(i, span, "", serve)
		} else {
			t0 := time.Now()
			_ = serve()
			d = time.Since(t0)
		}
		// An async POST answers 202, or 200 when the job settled (or the key
		// was seen) before the handler wrote the reply.
		if rec.Code != http.StatusOK && !(e.w.Burst > 0 && rec.Code == http.StatusAccepted) {
			return 0, fmt.Errorf("POST %s answered %d: %.200s", url, rec.Code, rec.Body.String())
		}
		if replay && rec.Header().Get("Idempotency-Replayed") != "true" {
			return 0, fmt.Errorf("replayed key was not recognised")
		}
		if e.w.Burst > 0 {
			var job struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
				return 0, err
			}
			id, err := strconv.Atoi(strings.TrimPrefix(job.ID, "j-"))
			if err != nil {
				return 0, fmt.Errorf("job id %q", job.ID)
			}
			pending = append(pending, id)
		}
		return d, nil
	}
	// settle waits out what async POSTs left running, so one measurement
	// does not queue behind the previous one's jobs.
	settle := func() error {
		for _, id := range pending {
			if _, err := f.WaitContext(context.Background(), id); err != nil {
				return err
			}
		}
		pending = pending[:0]
		return nil
	}

	var plain, keyed, replayed []time.Duration
	for i, j := range e.jobs {
		d, err := post(j, i, spanMQSS, "", false)
		if err != nil {
			return err
		}
		plain = append(plain, d)
	}
	if err := settle(); err != nil {
		return err
	}
	for i, j := range e.fresh {
		key := "ladder-" + strconv.Itoa(i)
		d, err := post(j, i, "", key, false)
		if err != nil {
			return err
		}
		keyed = append(keyed, d)
		if d, err = post(j, i, "", key, true); err != nil {
			return err
		}
		replayed = append(replayed, d)
	}
	if err := settle(); err != nil {
		return err
	}
	e.metrics["mqss.submit_handler_us_p50"] = p50us(plain)
	e.metrics["mqss.submit_handler_keyed_us_p50"] = p50us(keyed)
	e.metrics["mqss.replay_handler_us_p50"] = p50us(replayed)
	return nil
}
