package durable

import (
	"encoding/json"

	"repro/internal/fleet"
	"repro/internal/qrm"
)

// legacyFleetJob decodes the body of a 'Q' record — the job upsert a
// single-device daemon journaled before every deployment became a fleet —
// into the fleet record that replaces it. The job keeps its original ID.
// Work the crash caught in flight (queued, compiling, running) becomes
// queued so fleet.Scheduler.Restore re-queues it; terminal jobs carry
// their device-level record as the result, with interrupted surfacing as
// the retryable restart failure.
func legacyFleetJob(body []byte) (fleetJobRecord, bool) {
	var r struct {
		SubmitUnixMs int64 `json:"submit_unix_ms"`
		Job          *struct {
			qrm.Job
			Node string `json:"node"`
		} `json:"job"`
	}
	if json.Unmarshal(body, &r) != nil || r.Job == nil {
		return fleetJobRecord{}, false
	}
	src := r.Job.Job
	j := &fleet.Job{
		ID: src.ID, Request: src.Request, Node: r.Job.Node, Error: src.Error,
	}
	// done, failed and cancelled are spelled alike on a device leg and a job.
	j.Status = fleet.JobStatus(src.Status)
	if src.Status == qrm.StatusInterrupted {
		j.Status, j.Error = fleet.JobFailed, qrm.ErrInterruptedMsg
	} else if !j.Status.Terminal() {
		j.Status, j.Error = fleet.JobQueued, ""
	}
	if j.Status.Terminal() {
		j.Result = &src
	}
	return fleetJobRecord{SubmitUnixMs: r.SubmitUnixMs, Job: j}, true
}

// idemRecord is the body of an 'I' record — the Idempotency-Key → job-ID
// binding the HTTP layer journaled on its own before the key became a field
// of the job (fleet.Job.IdemKey, inside the 'F' record).
type idemRecord struct {
	Key   string `json:"key"`
	JobID int    `json:"job_id"`
}

func legacyIdemRecord(body []byte) (idemRecord, bool) {
	var r idemRecord
	ok := json.Unmarshal(body, &r) == nil && r.Key != "" && r.JobID > 0
	return r, ok
}
