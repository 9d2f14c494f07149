// Package qrm is the Quantum Resource Manager of Fig. 2 at its one
// per-device stage: a Manager JIT-compiles a claimed job against its
// device's current calibration epoch, executes it on the QPU, and keeps that
// device's pipeline metrics. The queue, the worker pools, admission and the
// job lifecycle belong to fleet.Scheduler, whose device workers claim jobs
// from one fleet-wide queue and run each one here inline (Manager.Run).
package qrm

import (
	"strconv"

	"repro/internal/circuit"
	"repro/internal/jsonwire"
	"repro/internal/transpile"
)

// JobStatus is the status of one device leg: one claimed attempt to run a
// job on one device.
type JobStatus string

const (
	StatusCompiling JobStatus = "compiling"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
	// StatusInterrupted is what single-device journals recorded for a leg
	// an outage caught; nothing produces it now, but the durable store's
	// legacy reader still maps it.
	StatusInterrupted JobStatus = "interrupted"
)

// Request is a job submission.
type Request struct {
	Circuit  *circuit.Circuit `json:"circuit"`
	Shots    int              `json:"shots"`
	Priority int              `json:"priority"`
	// User identifies the submitter (for history filtering).
	User string `json:"user"`
	// DeadlineMs is a wall-clock dispatch budget in milliseconds from
	// submission: a job still queued when it expires is failed with
	// ErrDeadlineMsg instead of being dispatched (0 = no deadline). The
	// queue honors it at claim time, so an expired job never wastes a
	// compile or a QPU round-trip.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Placement selects the JIT placement strategy; fidelity-aware is the
	// default.
	StaticPlacement bool `json:"static_placement,omitempty"`
}

// MarshalJSON implements json.Marshaler: a request is journaled with every
// job and echoed on reads, so it writes itself.
func (r Request) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// AppendJSON appends the request's JSON object to b, byte for byte what
// encoding/json writes for the struct.
func (r *Request) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"circuit":`...)
	if r.Circuit == nil {
		b = append(b, "null"...)
	} else {
		var err error
		if b, err = r.Circuit.AppendJSON(b); err != nil {
			return nil, err
		}
	}
	b = strconv.AppendInt(append(b, `,"shots":`...), int64(r.Shots), 10)
	b = strconv.AppendInt(append(b, `,"priority":`...), int64(r.Priority), 10)
	b = jsonwire.AppendString(append(b, `,"user":`...), r.User)
	if r.DeadlineMs != 0 {
		var err error
		if b, err = jsonwire.AppendFloat(append(b, `,"deadline_ms":`...), r.DeadlineMs); err != nil {
			return nil, err
		}
	}
	if r.StaticPlacement {
		b = append(b, `,"static_placement":true`...)
	}
	return append(b, '}'), nil
}

// Job is the record of one device leg.
type Job struct {
	ID      int       `json:"id"`
	Status  JobStatus `json:"status"`
	Request Request   `json:"request"`

	// Compilation artefacts, filled at dispatch.
	CompiledGates int              `json:"compiled_gates,omitempty"`
	CZCount       int              `json:"cz_count,omitempty"`
	Layout        transpile.Layout `json:"layout,omitempty"`
	// Transparency into compilation was an explicit user request (§4).
	CompileStats string `json:"compile_stats,omitempty"`

	// Results.
	Counts     circuit.Counts `json:"counts,omitempty"`
	DurationUs float64        `json:"duration_us,omitempty"`
	Error      string         `json:"error,omitempty"`

	// Submission and settlement instants on the fleet's simulation clock.
	SubmitTime float64 `json:"submit_time"`
	EndTime    float64 `json:"end_time,omitempty"`
}

// ErrDeadlineMsg is the error recorded on jobs that expired in the queue;
// API layers key the deadline_exceeded error code off it.
const ErrDeadlineMsg = "deadline exceeded before dispatch"

// ErrShedMsg is the error recorded on jobs shed by admission control when
// the queue crossed its configured bound; API layers key the retryable
// {code:"shed"} envelope off it. Shed jobs are accepted, counted, and
// terminated — never silently dropped — so conservation counters balance.
const ErrShedMsg = "shed: queue over admission high-water mark"

// ErrInterruptedMsg is the error recorded on jobs whose dispatch deadline
// passed while the process was down (fleet.Scheduler.Restore); the v2 API
// keys the retryable {code:"interrupted"} envelope off it.
const ErrInterruptedMsg = "interrupted by restart: dispatch deadline passed during recovery"
