package mqss

// This file defines the v2 API surface: one unified job resource over the
// fleet scheduler's records. A v2 job has an opaque string ID, the
// scheduler's lifecycle state (queued | routed | running | done | failed |
// cancelled), device placement, timing, counts, and a structured error
// envelope. It is the only job API: the v1 job routes answer 410 Gone.

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/jsonwire"
	"repro/internal/qrm"
)

// JobState is the scheduler's job status, served as-is: the lifecycle and
// its legal moves are fleet's transition table (DESIGN.md §Job lifecycle).
type JobState = fleet.JobStatus

const (
	StateQueued    = fleet.JobQueued
	StateRouted    = fleet.JobRouted
	StateRunning   = fleet.JobRunning
	StateDone      = fleet.JobDone
	StateFailed    = fleet.JobFailed
	StateCancelled = fleet.JobCancelled
)

// Error codes of the structured envelope. Retryability is part of the
// contract: clients retry `retryable` errors with backoff and surface the
// rest to the user.
const (
	CodeInvalidRequest   = "invalid_request" // malformed body, ID, or query
	CodeNotFound         = "not_found"       // no such resource
	CodeMethodNotAllowed = "method_not_allowed"
	CodeConflict         = "conflict"               // e.g. cancelling a terminal job
	CodeUnprocessable    = "unprocessable"          // well-formed but unrunnable submission
	CodeKeyReused        = "idempotency_key_reused" // the tenant's key is bound to another request
	CodeUnavailable      = "unavailable"            // transient capacity loss; retryable
	CodeDeadlineExceeded = "deadline_exceeded"      // expired before dispatch; retryable
	CodeExecutionFailed  = "execution_failed"       // the device rejected or failed the job
	CodeInterrupted      = "interrupted"            // lost to a crash/restart; retryable
	CodeRateLimited      = "rate_limited"           // over the tenant's token bucket; retryable
	CodeShed             = "shed"                   // evicted by overload shedding; retryable
	CodeInternal         = "internal"
)

// APIError is the structured error envelope every v2 error response (and
// terminal failed job) carries.
type APIError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`

	// Quota transparency on rate_limited refusals: the tenant's remaining
	// token balance and the whole seconds until one token accrues (the
	// same value as the Retry-After header, but machine-readable in the
	// body). Absent on every other error code.
	TokensLeft    *float64 `json:"tokens_left,omitempty"`
	RetryAfterSec int      `json:"retry_after,omitempty"`

	// RetryAfter is the server's Retry-After hint on 429 responses —
	// client-side decoration, not part of the wire envelope.
	RetryAfter time.Duration `json:"-"`
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Job is the unified v2 job resource.
type Job struct {
	// ID is the opaque job handle ("j-…"); treat it as a string.
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Device is the backend the job is (or was) placed on.
	Device string `json:"device,omitempty"`
	User   string `json:"user,omitempty"`
	Shots  int    `json:"shots,omitempty"`
	// Priority orders the dispatch queue (higher first); Deadline is the
	// dispatch budget in wall-clock ms from submission.
	Priority   int     `json:"priority,omitempty"`
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Migrations counts drain/failover re-routes.
	Migrations int `json:"migrations,omitempty"`
	// Score is the router's fidelity estimate at placement.
	Score float64 `json:"score,omitempty"`
	// Pinned names the backend the submission was pinned to, if any.
	Pinned string `json:"pinned,omitempty"`

	// The result's members, inline: compilation artefacts once the job was
	// dispatched, counts and duration once it is done, and its timing on
	// the backend's simulation clock.
	fleet.Result

	// Recovered marks a job restored from the durable store after a
	// restart; absent on jobs submitted to the current process.
	Recovered bool `json:"recovered,omitempty"`

	// Node is the federation member that owns this job (minted its ID,
	// holds its durable record). Absent on standalone deployments, and
	// identical no matter which node served the response — proxied reads
	// pass the owner's record through unchanged.
	Node string `json:"node,omitempty"`

	// Error is the structured envelope for failed jobs.
	Error *APIError `json:"error,omitempty"`

	// Request echoes the full submission on GET and DELETE of one job. A
	// POST leaves it out (the submitter already holds it), and so do list
	// pages and watch snapshots.
	Request *qrm.Request `json:"request,omitempty"`

	// A record read from a sealed job renders its result's members and, when
	// it shows the request, its request from the job's stored record, in
	// place of Result and Request.
	sealed                fleet.Record
	isSealed, withRequest bool
}

// MarshalJSON implements json.Marshaler: list pages go through
// encoding/json, and a sealed record's parts are not struct fields.
func (j *Job) MarshalJSON() ([]byte, error) { return j.AppendJSON(nil) }

// AppendJSON appends the record's JSON object to b, byte for byte what
// encoding/json writes for the struct (TestJobJSONMatchesReflection holds
// every field to that).
func (j *Job) AppendJSON(b []byte) ([]byte, error) {
	var err error
	float := func(name string, f float64) {
		if err == nil {
			b, err = jsonwire.AppendFloat(append(b, name...), f)
		}
	}
	b = jsonwire.AppendString(append(b, `{"id":`...), j.ID)
	b = jsonwire.AppendString(append(b, `,"state":`...), string(j.State))
	if j.Device != "" {
		b = jsonwire.AppendString(append(b, `,"device":`...), j.Device)
	}
	if j.User != "" {
		b = jsonwire.AppendString(append(b, `,"user":`...), j.User)
	}
	if j.Shots != 0 {
		b = strconv.AppendInt(append(b, `,"shots":`...), int64(j.Shots), 10)
	}
	if j.Priority != 0 {
		b = strconv.AppendInt(append(b, `,"priority":`...), int64(j.Priority), 10)
	}
	if j.DeadlineMs != 0 {
		float(`,"deadline_ms":`, j.DeadlineMs)
	}
	if j.Migrations != 0 {
		b = strconv.AppendInt(append(b, `,"migrations":`...), int64(j.Migrations), 10)
	}
	if j.Score != 0 {
		float(`,"score":`, j.Score)
	}
	if j.Pinned != "" {
		b = jsonwire.AppendString(append(b, `,"pinned":`...), j.Pinned)
	}
	if err == nil {
		if j.isSealed {
			b, err = j.sealed.AppendResultFields(append(b, ','))
		} else {
			b, err = j.Result.AppendFields(append(b, ','))
		}
	}
	if j.Recovered {
		b = append(b, `,"recovered":true`...)
	}
	if j.Node != "" {
		b = jsonwire.AppendString(append(b, `,"node":`...), j.Node)
	}
	if j.Error != nil {
		e := j.Error
		b = jsonwire.AppendString(append(b, `,"error":{"code":`...), e.Code)
		b = jsonwire.AppendString(append(b, `,"message":`...), e.Message)
		b = strconv.AppendBool(append(b, `,"retryable":`...), e.Retryable)
		if e.TokensLeft != nil {
			float(`,"tokens_left":`, *e.TokensLeft)
		}
		if e.RetryAfterSec != 0 {
			b = strconv.AppendInt(append(b, `,"retry_after":`...), int64(e.RetryAfterSec), 10)
		}
		b = append(b, '}')
	}
	if err == nil && j.withRequest {
		b, err = j.sealed.AppendRequest(append(b, `,"request":`...))
	} else if err == nil && j.Request != nil {
		b, err = j.Request.AppendJSON(append(b, `,"request":`...))
	}
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// SubmitRequest is the v2 submission body.
type SubmitRequest struct {
	Circuit    *circuit.Circuit `json:"circuit"`
	Shots      int              `json:"shots"`
	User       string           `json:"user,omitempty"`
	Priority   int              `json:"priority,omitempty"`
	DeadlineMs float64          `json:"deadline_ms,omitempty"`
	// StaticPlacement selects static over fidelity-aware JIT placement.
	StaticPlacement bool `json:"static_placement,omitempty"`
	// Device pins the job to one fleet backend; Policy overrides the fleet
	// routing policy.
	Device string `json:"device,omitempty"`
	Policy string `json:"policy,omitempty"`
}

// decodeJSON reads the submission object at the lexer's position without
// reflection; the circuit lands in one arena (circuit.DecodeJSON). Unknown
// keys are skipped and null leaves a field as it was, as with encoding/json.
func (r *SubmitRequest) decodeJSON(l *jsonwire.Lexer) {
	if !l.Begin('{') {
		return
	}
	for n := 0; l.More('}', n); n++ {
		switch key := l.Key(); {
		case jsonwire.Is(key, "circuit"):
			if l.Null() {
				r.Circuit = nil
			} else {
				r.Circuit = new(circuit.Circuit)
				r.Circuit.DecodeJSON(l)
			}
		case jsonwire.Is(key, "shots"):
			l.Int(&r.Shots)
		case jsonwire.Is(key, "user"):
			l.String(&r.User)
		case jsonwire.Is(key, "priority"):
			l.Int(&r.Priority)
		case jsonwire.Is(key, "deadline_ms"):
			l.Float(&r.DeadlineMs)
		case jsonwire.Is(key, "static_placement"):
			l.Bool(&r.StaticPlacement)
		case jsonwire.Is(key, "device"):
			l.String(&r.Device)
		case jsonwire.Is(key, "policy"):
			l.String(&r.Policy)
		default:
			l.Skip()
		}
	}
}

// qrmRequest lowers the v2 submission onto the QRM request shape.
func (r SubmitRequest) qrmRequest() qrm.Request {
	return qrm.Request{
		Circuit:         r.Circuit,
		Shots:           r.Shots,
		User:            r.User,
		Priority:        r.Priority,
		DeadlineMs:      r.DeadlineMs,
		StaticPlacement: r.StaticPlacement,
	}
}

// submitOptions lowers the submission's routing controls onto the fleet's
// submit options, rejecting an unknown policy.
func (r SubmitRequest) submitOptions() (fleet.SubmitOptions, error) {
	opts := fleet.SubmitOptions{Device: r.Device}
	if r.Policy != "" {
		p := fleet.Policy(r.Policy)
		if err := p.Validate(); err != nil {
			return opts, err
		}
		opts.Policy = p
	}
	return opts, nil
}

// JobEvent is one line of a v2 watch stream: the job entered State (on
// Device, when known). Reason annotates the move ("migrated" for a
// failover re-queue, "recovered" after a restart).
type JobEvent struct {
	Seq    uint64   `json:"seq,omitempty"`
	JobID  string   `json:"job_id"`
	State  JobState `json:"state"`
	Device string   `json:"device,omitempty"`
	Reason string   `json:"reason,omitempty"`
}

// AppendJSON appends the event's JSON object to b, byte for byte what
// encoding/json writes for the struct (TestJobEventJSONMatchesReflection).
func (e *JobEvent) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	if e.Seq != 0 {
		b = strconv.AppendUint(append(b, `"seq":`...), e.Seq, 10)
		b = append(b, ',')
	}
	b = jsonwire.AppendString(append(b, `"job_id":`...), e.JobID)
	b = jsonwire.AppendString(append(b, `,"state":`...), string(e.State))
	if e.Device != "" {
		b = jsonwire.AppendString(append(b, `,"device":`...), e.Device)
	}
	if e.Reason != "" {
		b = jsonwire.AppendString(append(b, `,"reason":`...), e.Reason)
	}
	return append(b, '}')
}

// JobPage is one cursor-paginated slice of the v2 job listing, newest
// first. NextCursor is present while older matches remain; thread it back
// via ?cursor= to continue.
type JobPage struct {
	Jobs       []*Job `json:"jobs"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// --- Opaque identifiers -------------------------------------------------

const jobIDPrefix = "j-"

// FormatJobID renders a backend-scoped numeric ID as the opaque v2 handle.
func FormatJobID(n int) string { return jobIDPrefix + strconv.Itoa(n) }

// ParseJobID recovers the numeric ID behind a v2 handle.
func ParseJobID(s string) (int, error) {
	raw, ok := strings.CutPrefix(s, jobIDPrefix)
	if !ok {
		return 0, fmt.Errorf("malformed job id %q", s)
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("malformed job id %q", s)
	}
	return n, nil
}

// encodeCursor packs the last-seen job ID into an opaque page cursor.
func encodeCursor(id int) string {
	return base64.RawURLEncoding.EncodeToString([]byte("v2:" + strconv.Itoa(id)))
}

// decodeCursor unpacks a page cursor.
func decodeCursor(s string) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, fmt.Errorf("malformed cursor %q", s)
	}
	v, ok := strings.CutPrefix(string(raw), "v2:")
	if !ok {
		return 0, fmt.Errorf("malformed cursor %q", s)
	}
	id, err := strconv.Atoi(v)
	if err != nil || id < 1 {
		return 0, fmt.Errorf("malformed cursor %q", s)
	}
	return id, nil
}

// --- Job records -------------------------------------------------------

// failureEnvelopes classifies the failures the pipeline itself produces, by
// the message it records on the job.
var failureEnvelopes = map[string]APIError{
	qrm.ErrInterruptedMsg: {Code: CodeInterrupted, Retryable: true},
	qrm.ErrShedMsg:        {Code: CodeShed, Retryable: true},
	qrm.ErrDeadlineMsg:    {Code: CodeDeadlineExceeded, Retryable: true},
}

// jobErrorEnvelope is the envelope of a failed job whose error reads msg;
// a message not in the table is the device rejecting or failing the circuit.
func jobErrorEnvelope(msg string) *APIError {
	env := failureEnvelopes[msg]
	if env.Code == "" {
		env.Code = CodeExecutionFailed
	}
	env.Message = msg
	return &env
}

// v2FromView is the record of a job as the scheduler holds it: a live job
// as Scheduler.View relabels it (a routed job past its compile reads
// running), or a sealed one, whose result's members and request are rendered
// from its stored record by the writers the live job's went through, so its
// record has the bytes the live job's had (TestSealedRecordMatchesLive).
func v2FromView(v fleet.View, withRequest bool) (*Job, error) {
	out := new(Job)
	var h fleet.Head
	if j := v.Live; j != nil {
		h, out.State = j.Head(), j.Status
		if j.Result != nil {
			out.Result = *j.Result
		}
		if withRequest {
			req := j.Request
			out.Request = &req
		}
	} else {
		var err error
		if h, err = v.Sealed.Head(); err != nil {
			return nil, err
		}
		out.State, out.sealed, out.isSealed, out.withRequest = v.Sealed.Status, v.Sealed, true, withRequest
	}
	out.ID = FormatJobID(h.ID)
	out.Device, out.Migrations, out.Score, out.Pinned = h.Device, h.Migrations, h.Score, h.Pinned
	out.User, out.Shots, out.Priority, out.DeadlineMs = h.User, h.Shots, h.Priority, h.DeadlineMs
	out.Recovered, out.Node = h.Recovered, h.Node
	if out.State == StateFailed {
		out.Error = jobErrorEnvelope(h.Error)
	}
	return out, nil
}
