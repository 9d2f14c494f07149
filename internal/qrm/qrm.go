// Package qrm holds the job request of the Quantum Resource Manager of
// Fig. 2: what a submission asks for, and the messages its pipeline's own
// failures carry. The QRM itself — the queue, admission, the device workers
// that JIT-compile a claimed job against the live calibration epoch and
// execute it, and the job lifecycle — is fleet.Scheduler.
package qrm

import (
	"strconv"

	"repro/internal/circuit"
	"repro/internal/jsonwire"
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
