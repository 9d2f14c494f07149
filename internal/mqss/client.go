package mqss

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
)

// AccessPath names the transport a client reaches the server by.
type AccessPath string

const (
	// PathHPC is the tightly-coupled in-process accelerator path.
	PathHPC AccessPath = "hpc"
	// PathREST is the remote asynchronous API path.
	PathREST AccessPath = "rest"
)

// Client is the MQSS client of Fig. 2, which reaches the stack "without
// requiring any code modifications from the user" whether a job originates
// inside or outside the HPC environment. Inside, NewLocalClient calls the
// node's handler in-process; outside, NewRemoteClient reaches it over
// HTTP. Both speak v2 to the same mqss.Server, so every method has one
// implementation and the two paths differ only in the transport.
//
// Every method takes a context.Context: cancellation and deadlines
// propagate into round-trips, long-polls and watch streams alike. Submit
// is the entry point — async submission returning a JobHandle with
// Wait/Poll/Watch/Cancel — and Run is Submit + Wait.
type Client struct {
	path    AccessPath
	baseURL string
	httpc   *http.Client
}

// NewRemoteClient returns a client that reaches the stack over HTTP.
func NewRemoteClient(baseURL string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{path: PathREST, baseURL: baseURL, httpc: httpc}
}

// Path reports which access path this client uses.
func (c *Client) Path() AccessPath { return c.path }

// --- HTTP plumbing ------------------------------------------------------

// doJSON issues one request with an optional JSON body and decodes the
// response into out (ignored when out is nil), returning the response
// headers. wantStatus lists acceptable status codes; anything else decodes
// as an API error.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out interface{}, header http.Header, wantStatus ...int) (http.Header, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("mqss: encoding request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return nil, fmt.Errorf("mqss: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("mqss: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	ok := false
	for _, s := range wantStatus {
		if resp.StatusCode == s {
			ok = true
			break
		}
	}
	if !ok {
		return nil, decodeError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return nil, fmt.Errorf("mqss: decoding %s response: %w", path, err)
		}
	}
	return resp.Header, nil
}

// --- v2: async submission and the job handle ----------------------------

// Client-side retry policy. Retryable refusals — 429 rate_limited, 503
// offline, shed/interrupted job outcomes — are absorbed by the client so
// the caller sees one slow submission, not an error. Backoff is capped
// exponential with full jitter; a server Retry-After is honored as the
// floor of each sleep.
const (
	// submitRetryAttempts bounds pre-admission retries (429/503): the
	// request never created a job, so retrying is always safe.
	submitRetryAttempts = 8
	// resubmitAttempts bounds post-admission resubmissions of jobs that
	// terminated with a retryable envelope (shed, interrupted).
	resubmitAttempts = 5
	submitBackoffMin = 50 * time.Millisecond
	submitBackoffMax = 5 * time.Second
)

// backoffSleep sleeps for the attempt's jittered backoff (full jitter over
// an exponentially growing cap), never less than floor (the server's
// Retry-After, when present). Returns early with ctx.Err() on cancellation.
func backoffSleep(ctx context.Context, attempt int, floor time.Duration) error {
	max := submitBackoffMin << uint(attempt)
	if max > submitBackoffMax || max <= 0 {
		max = submitBackoffMax
	}
	d := time.Duration(rand.Int63n(int64(max) + 1))
	if d < floor {
		d = floor
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryableAPIError extracts a retryable *APIError from err (nil when the
// error is not an API error or not retryable).
func retryableAPIError(err error) *APIError {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Retryable {
		return apiErr
	}
	return nil
}

// Submit accepts one job for asynchronous execution and returns its handle
// immediately — the v2 access model: submit, then Wait, Poll, Watch, or
// Cancel. idempotencyKey may be empty; a non-empty key makes retries safe on
// either path (the scheduler replays the original submission instead of
// duplicating it, and the handle says so in Replayed).
func (c *Client) Submit(ctx context.Context, req SubmitRequest, idempotencyKey string) (*JobHandle, error) {
	var hdr http.Header
	if idempotencyKey != "" {
		hdr = http.Header{"Idempotency-Key": {idempotencyKey}}
	}
	var job Job
	var replayed bool
	for attempt := 0; ; attempt++ {
		rh, err := c.doJSON(ctx, http.MethodPost, pathV2Jobs, req, &job, hdr,
			http.StatusAccepted, http.StatusOK)
		if err == nil {
			replayed = rh.Get("Idempotency-Replayed") == "true"
			break
		}
		// 429 rate_limited and 503 offline arrive before a job exists, so a
		// same-key retry can never duplicate work. Everything else (and
		// exhausted budgets) surfaces to the caller.
		apiErr := retryableAPIError(err)
		if apiErr == nil || attempt >= submitRetryAttempts {
			return nil, err
		}
		if serr := backoffSleep(ctx, attempt, apiErr.RetryAfter); serr != nil {
			return nil, serr
		}
	}
	if _, err := ParseJobID(job.ID); err != nil {
		return nil, fmt.Errorf("mqss: server returned %w", err)
	}
	return &JobHandle{c: c, ID: job.ID, Replayed: replayed, req: &req, idemKey: idempotencyKey}, nil
}

// Handle rebuilds a JobHandle from an opaque job ID (as returned by Submit,
// carried in a Location header, or listed by ListJobs) — the re-attach
// primitive: a process that crashed after submitting can resume watching.
func (c *Client) Handle(id string) (*JobHandle, error) {
	if _, err := ParseJobID(id); err != nil {
		return nil, err
	}
	return &JobHandle{c: c, ID: id}, nil
}

// JobHandle is a submitted job's remote control.
type JobHandle struct {
	c  *Client
	ID string // opaque v2 job ID
	// Replayed reports that Submit's idempotency key was already bound:
	// this handle is the original job, nothing new was submitted.
	Replayed bool

	// req/idemKey echo the original submission when the handle came from
	// Submit (nil/"" on handles rebuilt via Handle). They power transparent
	// resubmission: a job terminating with a retryable envelope — shed by
	// admission control, or interrupted by a restart — is resubmitted by
	// Wait/Watch instead of surfacing as a failure.
	req     *SubmitRequest
	idemKey string
	// resubmits counts transparent resubmissions already spent.
	resubmits int
}

// resubmit transparently re-enters the job when its terminal record is a
// retryable refusal (shed, interrupted). It reports whether the handle now
// points at a fresh submission the caller should keep waiting on. Handles
// without the original request (rebuilt via Handle) never resubmit, and the
// attempt budget bounds pathological loops against a permanently
// overloaded server.
func (h *JobHandle) resubmit(ctx context.Context, job *Job) (bool, error) {
	if h.req == nil || job == nil || job.Error == nil || !job.Error.Retryable {
		return false, nil
	}
	if h.resubmits >= resubmitAttempts {
		return false, nil
	}
	h.resubmits++
	if err := backoffSleep(ctx, h.resubmits, job.Error.RetryAfter); err != nil {
		return false, err
	}
	// The original idempotency key is bound to the job that just failed;
	// replaying it would return that same record forever. Derive a fresh,
	// deterministic-per-attempt key instead so the resubmission itself
	// stays safe to retry.
	key := h.idemKey
	if key != "" {
		key += "-r" + strconv.Itoa(h.resubmits)
	}
	nh, err := h.c.Submit(ctx, *h.req, key)
	if err != nil {
		return false, err
	}
	h.ID = nh.ID
	return true, nil
}

// Poll fetches the job's current record without blocking on completion.
func (h *JobHandle) Poll(ctx context.Context) (*Job, error) { return h.c.V2Job(ctx, h.ID) }

// waitPollInterval is the long-poll budget per round trip while waiting.
const waitPollInterval = 30 * time.Second

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns the terminal record by long-polling the job. Jobs that terminate
// with a retryable envelope (shed by admission control, interrupted by a
// restart) are transparently resubmitted — the caller sees one slow wait, not an error.
func (h *JobHandle) Wait(ctx context.Context) (*Job, error) {
	for {
		job, err := h.waitOnce(ctx)
		if err != nil {
			return nil, err
		}
		again, err := h.resubmit(ctx, job)
		if err != nil {
			return nil, err
		}
		if !again {
			return job, nil
		}
	}
}

// waitOnce brings the handle's current submission to a terminal record.
func (h *JobHandle) waitOnce(ctx context.Context) (*Job, error) {
	for {
		var job Job
		path := fmt.Sprintf("%s/%s?wait=%s", pathV2Jobs, h.ID, waitPollInterval)
		if _, err := h.c.doJSON(ctx, http.MethodGet, path, nil, &job, nil, http.StatusOK); err != nil {
			return nil, err
		}
		if job.State.Terminal() {
			return &job, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// Cancel requests cancellation: queued jobs cancel immediately,
// in-flight jobs settle cancelled at the pipeline's next stage boundary.
func (h *JobHandle) Cancel(ctx context.Context) error {
	_, err := h.c.doJSON(ctx, http.MethodDelete, pathV2Jobs+"/"+h.ID, nil, nil, nil,
		http.StatusAccepted)
	return err
}

// Watch streams the job's lifecycle events — server push over the v2
// events endpoint — invoking fn
// for each (fn may be nil), and returns the terminal record. The first
// event is always a "snapshot" of the current state. Like Wait, terminal
// records carrying a retryable envelope are transparently resubmitted and
// the watch follows the fresh job.
func (h *JobHandle) Watch(ctx context.Context, fn func(JobEvent)) (*Job, error) {
	for {
		job, err := h.watchOnce(ctx, fn)
		if err != nil {
			return nil, err
		}
		again, err := h.resubmit(ctx, job)
		if err != nil {
			return nil, err
		}
		if !again {
			return job, nil
		}
	}
}

func (h *JobHandle) watchOnce(ctx context.Context, fn func(JobEvent)) (*Job, error) {
	for {
		terminal, err := h.watchStreamOnce(ctx, fn)
		if err != nil {
			return nil, err
		}
		if terminal {
			return h.Poll(ctx)
		}
		// The stream ended without a terminal event (server restart or
		// graceful shutdown of the watch). Back off before re-establishing:
		// a server mid-shutdown keeps accepting connections until its
		// listener closes, and an instant retry loop would spin against it.
		select {
		case <-time.After(watchReconnectDelay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// watchReconnectDelay paces Watch's stream re-establishment.
const watchReconnectDelay = 500 * time.Millisecond

// watchStreamOnce consumes one NDJSON events stream; terminal reports
// whether a terminal-state event arrived before the stream ended.
func (h *JobHandle) watchStreamOnce(ctx context.Context, fn func(JobEvent)) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		h.c.baseURL+pathV2Jobs+"/"+h.ID+"/events", nil)
	if err != nil {
		return false, fmt.Errorf("mqss: building watch request: %w", err)
	}
	resp, err := h.c.httpc.Do(req)
	if err != nil {
		return false, fmt.Errorf("mqss: GET events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return false, fmt.Errorf("mqss: decoding event: %w", err)
		}
		if ev.Reason == "server-closing" {
			return false, nil
		}
		if fn != nil {
			fn(ev)
		}
		if ev.State.Terminal() {
			return true, nil
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return false, fmt.Errorf("mqss: reading event stream: %w", err)
	}
	return false, ctx.Err()
}

// V2Job fetches one unified job record by its opaque ID.
func (c *Client) V2Job(ctx context.Context, id string) (*Job, error) {
	if _, err := ParseJobID(id); err != nil {
		return nil, err
	}
	var job Job
	if _, err := c.doJSON(ctx, http.MethodGet, pathV2Jobs+"/"+id, nil, &job, nil, http.StatusOK); err != nil {
		return nil, err
	}
	return &job, nil
}

// V2JobTrace fetches a job's span tree (GET /api/v2/jobs/{id}/trace).
// Returns an error when the trace was never recorded or has been evicted.
func (c *Client) V2JobTrace(ctx context.Context, id string) (*JobTrace, error) {
	if _, err := ParseJobID(id); err != nil {
		return nil, err
	}
	var jt JobTrace
	if _, err := c.doJSON(ctx, http.MethodGet, pathV2Jobs+"/"+id+"/trace", nil, &jt, nil, http.StatusOK); err != nil {
		return nil, err
	}
	return &jt, nil
}

// StoreStatus reads durable-store health from a v2 server
// (GET /api/v2/admin/store).
func (c *Client) StoreStatus(ctx context.Context) (*StoreStatus, error) {
	var st StoreStatus
	if _, err := c.doJSON(ctx, http.MethodGet, pathV2AdminStore, nil, &st, nil, http.StatusOK); err != nil {
		return nil, err
	}
	return &st, nil
}

// TenantsStatus reads the multi-tenant admission snapshot from a v2 server
// (GET /api/v2/admin/tenants): per-tenant queue accounting, throttle
// counters, and the configured limits.
func (c *Client) TenantsStatus(ctx context.Context) (*TenantsStatus, error) {
	var ts TenantsStatus
	if _, err := c.doJSON(ctx, http.MethodGet, pathV2AdminTenants, nil, &ts, nil, http.StatusOK); err != nil {
		return nil, err
	}
	return &ts, nil
}

// ListOptions filter the v2 job listing.
type ListOptions struct {
	User   string
	States []JobState
	Cursor string
	Limit  int
}

// ListJobs pages through the v2 job listing, newest first; thread the
// returned NextCursor back in to continue.
func (c *Client) ListJobs(ctx context.Context, opts ListOptions) (*JobPage, error) {
	q := url.Values{}
	if opts.User != "" {
		q.Set("user", opts.User)
	}
	if len(opts.States) > 0 {
		parts := make([]string, len(opts.States))
		for i, s := range opts.States {
			parts[i] = string(s)
		}
		q.Set("state", strings.Join(parts, ","))
	}
	if opts.Cursor != "" {
		q.Set("cursor", opts.Cursor)
	}
	if opts.Limit > 0 {
		q.Set("limit", fmt.Sprint(opts.Limit))
	}
	path := pathV2Jobs
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page JobPage
	if _, err := c.doJSON(ctx, http.MethodGet, path, nil, &page, nil, http.StatusOK); err != nil {
		return nil, err
	}
	return &page, nil
}

// Run submits a job and waits for its terminal record — Submit + Wait,
// identical on the HPC and REST paths: "without requiring any code
// modifications from the user".
func (c *Client) Run(ctx context.Context, req SubmitRequest) (*Job, error) {
	h, err := c.Submit(ctx, req, "")
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// DeviceInfo is the REST device summary. Calibration carries the full
// record — per-qubit parameters and the per-coupler CZ fidelities (via the
// device.Calibration edge-list JSON encoding).
type DeviceInfo struct {
	Properties      qdmi.Properties     `json:"properties"`
	Fidelity1Q      float64             `json:"fidelity_1q"`
	FidelityReadout float64             `json:"fidelity_readout"`
	FidelityCZ      float64             `json:"fidelity_cz"`
	CalibrationAgeH float64             `json:"calibration_age_h"`
	Calibration     *device.Calibration `json:"calibration,omitempty"`
}

// Device fetches the properties of a one-device deployment's sole backend;
// against a larger roster it errors naming the devices (use FleetDevice).
func (c *Client) Device(ctx context.Context) (*DeviceInfo, error) {
	var roster map[string]*DeviceInfo
	if _, err := c.doJSON(ctx, http.MethodGet, pathDevice, nil, &roster, nil, http.StatusOK); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(roster))
	for name := range roster {
		names = append(names, name)
	}
	if len(names) != 1 {
		sort.Strings(names)
		return nil, fmt.Errorf("mqss: server has %d devices %v; name one with FleetDevice", len(names), names)
	}
	return roster[names[0]], nil
}

// FleetMetrics fetches the fleet status/metrics snapshot (GET
// /api/v1/fleet): queue depth, per-device state, routed/migrated/failed
// counters, fidelity means, and score histograms.
func (c *Client) FleetMetrics(ctx context.Context) (*fleet.Metrics, error) {
	var m fleet.Metrics
	if _, err := c.doJSON(ctx, http.MethodGet, pathFleet, nil, &m, nil, http.StatusOK); err != nil {
		return nil, err
	}
	return &m, nil
}

// FleetDevice fetches one fleet backend's device info (properties plus the
// full calibration record including couplers).
func (c *Client) FleetDevice(ctx context.Context, name string) (*DeviceInfo, error) {
	var info DeviceInfo
	path := pathDevice + "?device=" + url.QueryEscape(name)
	if _, err := c.doJSON(ctx, http.MethodGet, path, nil, &info, nil, http.StatusOK); err != nil {
		return nil, err
	}
	return &info, nil
}

// decodeError reads an error response in either wire shape: the v1
// `{"error"}` body or the v2 structured envelope (returned as *APIError so
// callers can branch on Code/Retryable).
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var v2 APIError
	if json.Unmarshal(data, &v2) == nil && v2.Code != "" {
		// Surface the server's pacing hint so retry loops can honor it.
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				v2.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return &v2
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("mqss: server %d: %s", resp.StatusCode, e.Error)
	}
	return fmt.Errorf("mqss: server returned %d", resp.StatusCode)
}
