package mqss

// The /api/v2 handlers: the async-by-default job resource API. Submission
// returns 202 + Location immediately (?wait= turns it into a bounded
// long-poll), GET /jobs/{id} reads the resource (?wait= long-polls for a
// terminal state), GET /jobs/{id}/events streams lifecycle transitions as
// NDJSON or SSE off the job's event feed, DELETE cancels (a queued job
// at once, a running one at its next stage boundary), and GET /jobs pages the
// history with opaque cursors. Every error is the structured envelope
// {code, message, retryable}.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/jsonwire"
	"repro/internal/telemetry/trace"
)

const pathV2Jobs = "/api/v2/jobs"

// maxWait caps ?wait= long-polls so a stuck client cannot pin a handler
// goroutine forever; longer waits re-poll.
const maxWait = 60 * time.Second

// digitRuns cuts a ?wait= value down to its shape (parseWait).
var digitRuns = regexp.MustCompile(`[0-9]+`)

// parseWait reads the ?wait= long-poll budget: a Go duration ("500ms",
// "3s") or a bare number of seconds. Zero means "don't wait". Seconds are
// checked and capped before they become a Duration: Go leaves the
// conversion of a float out of int64's range to the platform. A Go duration
// past that range is capped too, or refused when negative.
func parseWait(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		secs, serr := strconv.ParseFloat(v, 64)
		if serr != nil {
			// Nothing but its size makes a duration's digits malformed: a v
			// that parses with each run of them cut to "1" is past int64's
			// range.
			if _, derr := time.ParseDuration(digitRuns.ReplaceAllString(v, "1")); derr == nil {
				if secs, serr = math.MaxFloat64, nil; v[0] == '-' {
					secs = -secs
				}
			}
		}
		switch {
		case serr != nil:
			return 0, fmt.Errorf("malformed wait %q (want a duration like 3s)", v)
		case math.IsNaN(secs) || math.IsInf(secs, 0):
			return 0, fmt.Errorf("malformed wait %q (want a finite number of seconds)", v)
		case secs < 0:
			return 0, fmt.Errorf("malformed wait %q (must be >= 0)", v)
		}
		d = time.Duration(min(secs, maxWait.Seconds()) * float64(time.Second))
	}
	if d < 0 {
		return 0, fmt.Errorf("malformed wait %q (must be >= 0)", v)
	}
	if d > maxWait {
		d = maxWait
	}
	return d, nil
}

// retryAfterSeconds renders a wait as whole Retry-After seconds, rounded
// up with a floor of 1 so a refusal never tells the client "retry now".
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// v2JobRecord fetches the unified record for a backend job ID, with its
// request when withRequest is set. A sealed job's record is copied into
// *buf and the Job shares its bytes, so the caller keeps *buf until the Job
// is written.
func (s *Server) v2JobRecord(id int, withRequest bool, buf *[]byte) (*Job, error) {
	v, err := s.fleet.View(id, withRequest, buf)
	if err != nil {
		return nil, err
	}
	return v2FromView(v, withRequest)
}

// writeFleetError answers a failed job-addressed scheduler call.
func writeFleetError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fleet.ErrNoJob):
		writeV2Error(w, http.StatusNotFound, CodeNotFound, err.Error(), false)
	case errors.Is(err, fleet.ErrJobTerminal):
		writeV2Error(w, http.StatusConflict, CodeConflict, err.Error(), false)
	default:
		writeV2Error(w, http.StatusInternalServerError, CodeInternal, err.Error(), false)
	}
}

// handleV2Jobs: POST = async submit, GET = cursor-paginated listing.
func (s *Server) handleV2Jobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.v2Submit(w, r)
	case http.MethodGet:
		s.v2List(w, r)
	default:
		writeV2Error(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed", r.Method), false)
	}
}

// maxSubmitBytes bounds a submission body, far above any circuit the
// devices run (2 000 gates are about 100 KB of JSON); a longer body is
// refused before it is buffered whole.
const maxSubmitBytes = 8 << 20

// bodyPool recycles submission bodies: the decode copies out what it keeps.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// releaseBody pools a body buffer unless one outsized submission grew it.
func releaseBody(b *bytes.Buffer) {
	if b.Cap() <= 64<<10 {
		bodyPool.Put(b)
	}
}

// decodeSubmission reads the first JSON value of a submission body, as
// json.Decoder would: whatever follows it is ignored, and an empty body is
// an error.
func decodeSubmission(body []byte, req *SubmitRequest) error {
	if len(bytes.TrimSpace(body)) == 0 {
		return io.EOF
	}
	var l jsonwire.Lexer
	l.Reset(body)
	req.decodeJSON(&l)
	return l.Err()
}

// v2Submit accepts one job and returns 202 + Location (async by default).
// ?wait= long-polls for completion and returns 200 with the terminal
// record when it arrives in time; the record leaves out the request the
// caller just sent (GET returns it). An Idempotency-Key header makes
// retries safe: the same key replays the original submission's outcome
// instead of executing twice (bounded dedup window).
func (s *Server) v2Submit(w http.ResponseWriter, r *http.Request) {
	body := bodyPool.Get().(*bytes.Buffer)
	defer releaseBody(body)
	body.Reset()
	var req SubmitRequest
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxSubmitBytes)); err != nil {
		writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest,
			"decoding request: "+err.Error(), false)
		return
	}
	if err := decodeSubmission(body.Bytes(), &req); err != nil {
		writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest,
			"decoding request: "+err.Error(), false)
		return
	}
	wait, err := parseWait(r)
	if err != nil {
		writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest, err.Error(), false)
		return
	}
	// Federation: place the job by rendezvous hash on (tenant,
	// idempotency-key) and forward it to its owner. Placement runs before
	// the rate limiter — admission is the owner's call, so a tenant's
	// token bucket is drawn exactly once per submission no matter which
	// node it entered through. Requests that already hopped once
	// (HeaderForwardedFrom set) are owned here by definition; fedProxy
	// rejects a second hop as a membership misconfiguration.
	if s.fed != nil && r.Header.Get(federation.HeaderForwardedFrom) == "" {
		if owner := s.fed.PlaceJob(req.User, r.Header.Get("Idempotency-Key")); owner != s.fed.Self() {
			s.fed.NoteForwardedSubmit()
			// A copy: the transport may read a request body after the round
			// trip returns, and this buffer goes back to the pool.
			s.fedProxy(w, r, owner, bytes.NewReader(bytes.Clone(body.Bytes())), false)
			return
		}
	}
	if ok, retryAfter := s.limiter.Allow(req.User); !ok {
		// Admission is a contract, not a crash: the refusal names the wait
		// until one token accrues and the tenant's remaining balance, and
		// the envelope is retryable so clients back off and resubmit
		// instead of surfacing an error.
		secs := retryAfterSeconds(retryAfter)
		// Rounded to 3 decimals: sub-millitoken accrual between the refusal
		// and this read is noise, and the golden contract fixture pins the
		// rounded value.
		tokens := math.Round(s.limiter.Remaining(req.User)*1000) / 1000
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, &APIError{
			Code:          CodeRateLimited,
			Message:       fmt.Sprintf("tenant %q over submission rate limit", req.User),
			Retryable:     true,
			TokensLeft:    &tokens,
			RetryAfterSec: secs,
		})
		return
	}
	opts, err := req.submitOptions()
	if err != nil {
		writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest, err.Error(), false)
		return
	}
	opts.IdemKey = r.Header.Get("Idempotency-Key")
	id, replayed, err := s.fleet.SubmitKeyed(req.qrmRequest(), opts)
	if err != nil {
		code := CodeUnprocessable
		if errors.Is(err, fleet.ErrKeyReused) {
			code = CodeKeyReused
		}
		writeV2Error(w, http.StatusUnprocessableEntity, code, err.Error(), false)
		return
	}
	if rid := w.Header().Get("X-Request-ID"); rid != "" && !replayed {
		// Correlate the HTTP request with the server-side trace: the root
		// span carries the id the client saw in X-Request-ID. Replays keep
		// the original submission's id.
		s.fleet.Trace(id).Root().SetAttr("request_id", rid)
	}
	if from := r.Header.Get(federation.HeaderForwardedFrom); s.fed != nil && from != "" && !replayed {
		// The submission hopped nodes: record the cross-node leg on the
		// owner's trace so `qhpcctl trace` shows where the job entered
		// the federation.
		leg := s.fleet.Trace(id).Root().StartChild("fed-forward",
			trace.Str("from_node", from), trace.Str("to_node", s.fed.Self()))
		leg.End()
	}
	if wait > 0 {
		// Returning without the job terminal is not an error — the response
		// reports the current state.
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		_ = s.fleet.Await(ctx, id)
		cancel()
	}
	buf := outPool.Get().(*[]byte)
	defer putOut(buf)
	job, err := s.v2JobRecord(id, false, buf)
	if err != nil {
		writeV2Error(w, http.StatusInternalServerError, CodeInternal, err.Error(), false)
		return
	}
	w.Header().Set("Location", pathV2Jobs+"/"+job.ID)
	if replayed {
		w.Header().Set("Idempotency-Replayed", "true")
	}
	status := http.StatusAccepted
	if job.State.Terminal() && (wait > 0 || replayed) {
		// The long-poll (or a replayed already-finished submission) caught
		// the terminal record: this response is the final word. A plain
		// POST stays 202 even when its job settled before the read-back
		// (shed at its own mint, or simply fast).
		status = http.StatusOK
	}
	writeRecord(w, status, job)
}

// v2List: GET /api/v2/jobs?user=&state=&cursor=&limit= — newest first,
// opaque continuation cursor. state accepts a comma-separated set of states
// ("running" matches routed jobs too: pages carry the stored status, which
// does not track the device-level run phase).
func (s *Server) v2List(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 20
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Sprintf("malformed limit %q", v), false)
			return
		}
		if n > 100 {
			n = 100
		}
		limit = n
	}
	before := 0
	if v := q.Get("cursor"); v != "" {
		id, err := decodeCursor(v)
		if err != nil {
			writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest, err.Error(), false)
			return
		}
		before = id
	}
	var filter map[JobState]bool
	if v := q.Get("state"); v != "" {
		filter = make(map[JobState]bool)
		for _, part := range strings.Split(v, ",") {
			st, err := fleet.ParseJobStatus(strings.TrimSpace(part))
			if err != nil {
				writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest, err.Error(), false)
				return
			}
			filter[st] = true
		}
	}
	page := &JobPage{Jobs: []*Job{}}
	var lastID int
	buf := outPool.Get().(*[]byte)
	defer putOut(buf)
	views, more := s.fleet.ListViews(q.Get("user"), filter, before, limit, false, buf)
	for _, v := range views {
		job, err := v2FromView(v, false)
		if err != nil {
			writeV2Error(w, http.StatusInternalServerError, CodeInternal, err.Error(), false)
			return
		}
		page.Jobs = append(page.Jobs, job)
		lastID = v.ID
	}
	if more && lastID > 0 {
		page.NextCursor = encodeCursor(lastID)
	}
	writeJSON(w, http.StatusOK, page)
}

// handleV2JobByID routes /api/v2/jobs/{id} and /api/v2/jobs/{id}/events.
func (s *Server) handleV2JobByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, pathV2Jobs+"/")
	idStr, sub, _ := strings.Cut(rest, "/")
	id, err := ParseJobID(idStr)
	if err != nil {
		writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest, err.Error(), false)
		return
	}
	// Federation: the job ID names its owner. Requests for jobs another
	// member owns — reads, cancels, watch streams, traces — are relayed
	// there transparently; IDs outside every member's range fall through
	// to the local (404) path.
	if owner, proxied := s.fedJobOwner(id); proxied {
		if sub == "events" {
			s.fed.NoteProxiedStream()
		} else {
			s.fed.NoteProxiedRead()
		}
		s.fedProxy(w, r, owner, nil, sub == "events")
		return
	}
	switch sub {
	case "":
		switch r.Method {
		case http.MethodGet:
			s.v2Get(w, r, id)
		case http.MethodDelete:
			s.v2Cancel(w, id)
		default:
			writeV2Error(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				fmt.Sprintf("method %s not allowed", r.Method), false)
		}
	case "events":
		if r.Method != http.MethodGet {
			writeV2Error(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				fmt.Sprintf("method %s not allowed", r.Method), false)
			return
		}
		s.v2Watch(w, r, id)
	case "trace":
		s.v2Trace(w, r, id)
	default:
		writeV2Error(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no resource %q under job %s", sub, idStr), false)
	}
}

// v2Get reads one job; ?wait= long-polls for a terminal state first and
// returns whatever state the job is in when the budget runs out (200 either
// way — the state field is the answer).
func (s *Server) v2Get(w http.ResponseWriter, r *http.Request, id int) {
	wait, err := parseWait(r)
	if err != nil {
		writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest, err.Error(), false)
		return
	}
	buf := outPool.Get().(*[]byte)
	defer putOut(buf)
	job, err := s.v2JobRecord(id, true, buf)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	if wait > 0 && !job.State.Terminal() {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		_ = s.fleet.Await(ctx, id)
		cancel()
		if job, err = s.v2JobRecord(id, true, buf); err != nil {
			writeV2Error(w, http.StatusInternalServerError, CodeInternal, err.Error(), false)
			return
		}
	}
	writeRecord(w, http.StatusOK, job)
}

// v2Cancel: DELETE /api/v2/jobs/{id}. Queued jobs cancel immediately; in-flight jobs have the cancellation requested and settle
// cancelled at the pipeline's next stage boundary — 202 covers both, with
// the current record in the body.
func (s *Server) v2Cancel(w http.ResponseWriter, id int) {
	if err := s.fleet.Cancel(id); err != nil {
		writeFleetError(w, err)
		return
	}
	buf := outPool.Get().(*[]byte)
	defer putOut(buf)
	job, err := s.v2JobRecord(id, true, buf)
	if err != nil {
		writeV2Error(w, http.StatusInternalServerError, CodeInternal, err.Error(), false)
		return
	}
	writeRecord(w, http.StatusAccepted, job)
}

// v2Watch: GET /api/v2/jobs/{id}/events — the server-push stream. NDJSON
// by default, SSE under Accept: text/event-stream. The stream opens with a
// synthetic snapshot event for the job's current state (so late watchers
// see where they stand), then follows the job's events until it goes
// terminal, the client disconnects, or the server begins a graceful
// shutdown. The snapshot and the feed are taken under one scheduler lock,
// so the stream neither misses nor repeats a transition. A terminal job's
// stream is its snapshot alone, read without a feed.
func (s *Server) v2Watch(w http.ResponseWriter, r *http.Request, id int) {
	state, device, recovered, sub, err := s.fleet.Watch(id, 32)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	if sub != nil {
		defer sub.Close()
	}

	out := watchWriter{w: w, sse: strings.Contains(r.Header.Get("Accept"), "text/event-stream")}
	if out.sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	out.flusher, _ = w.(http.Flusher)

	// Watchers re-attaching after a restart learn they are looking at a
	// recovered job from the opening event's reason.
	jobID := FormatJobID(id)
	snapReason := "snapshot"
	if recovered && !state.Terminal() {
		snapReason = "recovered"
	}
	// A stream's last line is written without a flush: it leaves with the
	// stream's end, in the one write net/http makes when the handler returns.
	if state.Terminal() {
		out.last(&JobEvent{JobID: jobID, State: state, Device: device, Reason: snapReason})
		return
	}
	out.line(&JobEvent{JobID: jobID, State: state, Device: device, Reason: snapReason})
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				// The job went terminal but its event was dropped on the
				// full feed: end with the terminal state as Peek reads it.
				if state, device, _, err = s.fleet.Peek(id); err == nil {
					out.last(&JobEvent{JobID: jobID, State: state, Device: device, Reason: "snapshot"})
				}
				return
			}
			line := &JobEvent{Seq: ev.Seq, JobID: jobID, State: ev.To, Device: ev.Device, Reason: ev.Reason}
			if ev.To.Terminal() {
				out.last(line)
				return
			}
			out.line(line)
			state, device = ev.To, ev.Device
		case <-r.Context().Done():
			return
		case <-s.closing:
			// Graceful shutdown: end the stream cleanly so http.Server's
			// Shutdown can drain this handler. The line repeats the state
			// and device of the last line written.
			out.last(&JobEvent{JobID: jobID, State: state, Device: device, Reason: "server-closing"})
			return
		}
	}
}

// watchWriter writes a watch stream's lines, NDJSON or SSE, each with one
// write, through a buffer it reuses.
type watchWriter struct {
	w       io.Writer
	flusher http.Flusher
	sse     bool
	buf     []byte
}

// line writes one event and flushes it, so the watcher reads it at once.
func (o *watchWriter) line(ev *JobEvent) {
	o.last(ev)
	if o.flusher != nil {
		o.flusher.Flush()
	}
}

// last writes one event, its JSON and a newline, framed as an SSE data
// field under SSE, without a flush: the stream's last line leaves with the
// stream's end.
func (o *watchWriter) last(ev *JobEvent) {
	b := o.buf[:0]
	if o.sse {
		b = append(b, "data: "...)
	}
	b = append(ev.AppendJSON(b), '\n')
	if o.sse {
		b = append(b, '\n')
	}
	_, _ = o.w.Write(b)
	o.buf = b
}
