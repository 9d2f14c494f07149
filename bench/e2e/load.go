package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Span is one bench-owned client span, or a daemon span read back from
// GET /jobs/{id}/trace (those carry the "server:" name prefix). Spans of one
// job share Trace. Times are microseconds from the start of the timed part
// for client spans, from the job's own root for server spans.
type Span struct {
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// Acked is a job the daemon acknowledged, kept to prove it survives a crash.
type Acked struct {
	ID, Digest string
}

// LoadResult is what one closed-loop phase (warm-up or timed part) saw.
type LoadResult struct {
	Wall      time.Duration
	Samples   []Sample
	PostMs    []float64 // POST round trips
	FirstEvMs []float64 // watch open -> first event (burst mode)
	Attempted int
	Failed    int
	Failures  []string // the first few, for the report
	Tally     *Tally
	Acked     []Acked // sampled 1 in 10, then the last 100
	LastAcked Acked
	Spans     []Span
	ServerUs  map[string][]float64 // daemon span name -> durations
	Exhausted bool                 // ran out of generated inputs before the deadline
}

// LoadConfig parameterises one phase.
type LoadConfig struct {
	Workload     *Workload
	URL          string
	Inputs       []Input
	Epoch        time.Time     // start of the phase (zero = when RunLoad is called)
	Deadline     time.Duration // stop taking work after this long (0 = none)
	MaxJobs      int           // stop after this many submits (0 = none)
	Traced       bool
	DeviceQubits map[string]int
}

// maxFailureNotes bounds how many failure messages a run keeps.
const maxFailureNotes = 5

// caller is the one closed-loop client of a phase: one connection, one
// goroutine, the next request sent only when the previous one has answered.
// One, because that is what a hybrid loop is, and because the two-vCPU
// reference box has no core to spare: this caller, the daemon's HTTP
// goroutines and its two workers already keep 1.1 of the 2 vCPUs busy
// (README.md, "Why a closed loop, and why one caller").
type caller struct {
	cfg    *LoadConfig
	http   *http.Client
	epoch  time.Time
	res    *LoadResult
	buf    bytes.Buffer
	taken  int // inputs taken so far
	sent   int // submits so far: the replay cadence and the trace ids
	prev   *Input
	prevID string
	ring   []Acked // last 100 acked, circular
	ringAt int
}

func (c *caller) fail(format string, args ...interface{}) {
	c.res.Failed++
	if len(c.res.Failures) < maxFailureNotes {
		c.res.Failures = append(c.res.Failures, fmt.Sprintf(format, args...))
	}
}

// take returns the next input, or false when the phase is over.
func (c *caller) take() (*Input, int, bool) {
	if d := c.cfg.Deadline; d > 0 && time.Since(c.epoch) >= d {
		return nil, 0, false
	}
	i := c.taken
	if c.cfg.MaxJobs > 0 && i >= c.cfg.MaxJobs {
		return nil, 0, false
	}
	n := len(c.cfg.Inputs)
	if i >= n && c.cfg.Workload.Circuits == CircuitsAnsatz {
		c.res.Exhausted = true // every input is unique: none to repeat
		return nil, 0, false
	}
	c.taken++
	return &c.cfg.Inputs[i%n], i, true
}

// do sends one request and returns status, headers and the body (valid
// until the next call).
func (c *caller) do(ctx context.Context, method, url string, body []byte, hdr map[string]string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), nil
}

func (c *caller) traceID() string { return "qb-" + strconv.Itoa(c.sent) }

func (c *caller) span(trace, name, parent string, start, end time.Duration) {
	c.res.Spans = append(c.res.Spans, Span{Trace: trace, Name: name, Parent: parent,
		StartUs: float64(start) / 1e3, EndUs: float64(end) / 1e3})
}

// verify checks a terminal record and pools its counts.
func (c *caller) verify(rec *Record, in *Input, idx int) bool {
	logical, err := CheckRecord(rec, in.NumQubits, in.Shots, c.cfg.DeviceQubits)
	if err != nil {
		c.fail("%v", err)
		return false
	}
	c.res.Tally.Add(in, idx, logical)
	return true
}

// ack remembers a durable job for the after-restart check.
func (c *caller) ack(rec *Record) {
	a := Acked{ID: rec.ID, Digest: CountsDigest(rec.Counts)}
	if c.sent%10 == 0 {
		c.res.Acked = append(c.res.Acked, a)
	}
	if len(c.ring) < 100 {
		c.ring = append(c.ring, a)
	} else {
		c.ring[c.ringAt] = a
		c.ringAt = (c.ringAt + 1) % len(c.ring)
	}
	c.res.LastAcked = a
}

// serverTrace reads the daemon's span tree of a job and files every span's
// duration under its name.
func (c *caller) serverTrace(ctx context.Context, jobID, trace string) {
	status, _, body, err := c.do(ctx, http.MethodGet, c.cfg.URL+"/api/v2/jobs/"+jobID+"/trace", nil, nil)
	if err != nil || status != http.StatusOK {
		return // evicted from the retention ring: a missing sample, not a failed job
	}
	var tr struct {
		Root *serverSpan `json:"root"`
	}
	if json.Unmarshal(body, &tr) != nil || tr.Root == nil {
		return
	}
	var walk func(s *serverSpan, parent string)
	walk = func(s *serverSpan, parent string) {
		c.res.ServerUs[s.Name] = append(c.res.ServerUs[s.Name], s.DurationUs)
		c.res.Spans = append(c.res.Spans, Span{Trace: trace, Name: "server:" + s.Name, Parent: parent,
			StartUs: s.StartUs, EndUs: s.StartUs + s.DurationUs})
		for _, ch := range s.Children {
			walk(ch, "server:"+s.Name)
		}
	}
	walk(tr.Root, "")
}

type serverSpan struct {
	Name       string        `json:"name"`
	StartUs    float64       `json:"start_us"`
	DurationUs float64       `json:"duration_us"`
	Children   []*serverSpan `json:"children"`
}

// waitLoop is the long-poll access mode: POST ?wait=30s, one job at a time.
func (c *caller) waitLoop(ctx context.Context) {
	w := c.cfg.Workload
	url := c.cfg.URL + "/api/v2/jobs?wait=30s"
	hdr := map[string]string{}
	for ctx.Err() == nil {
		replay := w.Keyed && c.prev != nil && c.sent%ReplayEvery == ReplayEvery-1
		var in *Input
		idx := -1
		if replay {
			in = c.prev
		} else {
			var ok bool
			if in, idx, ok = c.take(); !ok {
				return
			}
		}
		c.sent++
		c.res.Attempted++
		trace := ""
		clear(hdr)
		if in.Key != "" {
			hdr["Idempotency-Key"] = in.Key
		}
		if c.cfg.Traced {
			trace = c.traceID()
			hdr["X-Request-ID"] = trace
		}
		t0 := time.Since(c.epoch)
		status, rh, body, err := c.do(ctx, http.MethodPost, url, in.Body, hdr)
		t1 := time.Since(c.epoch)
		s := Sample{Start: t0, End: t1}
		if c.cfg.Traced {
			c.span(trace, "post", "", t0, t1)
		}
		var rec Record
		switch {
		case err != nil:
			c.fail("POST: %v", err)
		case status != http.StatusOK:
			c.fail("POST ?wait=30s answered %d: %.200s", status, body)
		case json.Unmarshal(body, &rec) != nil:
			c.fail("POST answered an undecodable record: %.200s", body)
		case replay:
			if err := CheckReplay(c.prevID, rec.ID, rh.Get("Idempotency-Replayed")); err != nil {
				c.fail("%v", err)
			} else {
				s.OK = true
			}
		default:
			if c.verify(&rec, in, idx) {
				s.OK = true
				c.prev, c.prevID = in, rec.ID
				if w.Durable {
					c.ack(&rec)
				}
			}
		}
		c.res.Samples = append(c.res.Samples, s)
		c.res.PostMs = append(c.res.PostMs, s.ms())
		if c.cfg.Traced && s.OK && c.sent%w.TraceEvery == 0 {
			c.serverTrace(ctx, rec.ID, trace)
		}
	}
}

// burstLoop is the async access mode: POST a burst without waiting, then
// follow each job's event stream to its terminal event and fetch the result.
func (c *caller) burstLoop(ctx context.Context) {
	w := c.cfg.Workload
	type pending struct {
		in    *Input
		idx   int
		id    string
		trace string
		start time.Duration
	}
	burst := make([]pending, 0, w.Burst)
	hdr := map[string]string{}
	for ctx.Err() == nil {
		burst = burst[:0]
		for len(burst) < w.Burst {
			in, idx, ok := c.take()
			if !ok {
				break
			}
			c.sent++
			c.res.Attempted++
			p := pending{in: in, idx: idx}
			clear(hdr)
			if c.cfg.Traced {
				p.trace = c.traceID()
				hdr["X-Request-ID"] = p.trace
			}
			p.start = time.Since(c.epoch)
			status, _, body, err := c.do(ctx, http.MethodPost, c.cfg.URL+"/api/v2/jobs", in.Body, hdr)
			end := time.Since(c.epoch)
			c.res.PostMs = append(c.res.PostMs, float64(end-p.start)/1e6)
			var rec Record
			switch {
			case err != nil:
				c.fail("POST: %v", err)
			case status != http.StatusAccepted && status != http.StatusOK:
				c.fail("POST answered %d: %.200s", status, body)
			case json.Unmarshal(body, &rec) != nil || rec.ID == "":
				c.fail("POST answered an undecodable record: %.200s", body)
			default:
				p.id = rec.ID
			}
			if p.id == "" {
				c.res.Samples = append(c.res.Samples, Sample{Start: p.start, End: end})
				continue
			}
			if c.cfg.Traced {
				c.span(p.trace, "post", "job", p.start, end)
			}
			burst = append(burst, p)
		}
		if len(burst) == 0 {
			return
		}
		for _, p := range burst {
			open := time.Since(c.epoch)
			first, term, err := c.watch(ctx, p.id)
			s := Sample{Start: p.start, End: term}
			if err != nil {
				s.End = time.Since(c.epoch)
				c.fail("watch %s: %v", p.id, err)
				c.res.Samples = append(c.res.Samples, s)
				continue
			}
			c.res.FirstEvMs = append(c.res.FirstEvMs, float64(first-open)/1e6)
			if c.cfg.Traced {
				c.span(p.trace, "job", "", p.start, term)
				c.span(p.trace, "watch-open", "job", open, first)
				c.span(p.trace, "watch-terminal", "job", open, term)
			}
			status, _, body, err := c.do(ctx, http.MethodGet, c.cfg.URL+"/api/v2/jobs/"+p.id, nil, nil)
			var rec Record
			switch {
			case err != nil:
				c.fail("GET %s: %v", p.id, err)
			case status != http.StatusOK:
				c.fail("GET %s answered %d: %.200s", p.id, status, body)
			case json.Unmarshal(body, &rec) != nil:
				c.fail("GET %s answered an undecodable record: %.200s", p.id, body)
			default:
				s.OK = c.verify(&rec, p.in, p.idx)
			}
			c.res.Samples = append(c.res.Samples, s)
			if c.cfg.Traced && s.OK && (p.idx+1)%w.TraceEvery == 0 {
				c.serverTrace(ctx, p.id, p.trace)
			}
		}
	}
}

// watch follows GET /jobs/{id}/events (NDJSON) to the terminal event and
// returns when the first and the terminal event arrived.
func (c *caller) watch(ctx context.Context, id string) (first, term time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.URL+"/api/v2/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("events answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		now := time.Since(c.epoch)
		if first == 0 {
			first = now
		}
		var ev struct {
			State  string `json:"state"`
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return first, now, fmt.Errorf("undecodable event %q", sc.Bytes())
		}
		switch ev.State {
		case "done", "failed", "cancelled":
			if ev.Reason != "cancel-requested" {
				// Read to EOF so the connection goes back to the pool.
				_, _ = io.Copy(io.Discard, resp.Body)
				return first, now, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return first, time.Since(c.epoch), err
	}
	return first, time.Since(c.epoch), fmt.Errorf("stream ended before a terminal event")
}

// RunLoad drives one closed-loop phase with one caller and returns when the
// caller has its last reply.
func RunLoad(ctx context.Context, cfg *LoadConfig) *LoadResult {
	epoch := cfg.Epoch
	if epoch.IsZero() {
		epoch = time.Now()
	}
	res := &LoadResult{Tally: NewTally(), ServerUs: map[string][]float64{}}
	c := &caller{cfg: cfg, epoch: epoch, res: res,
		http: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}}
	if cfg.Workload.Burst > 0 {
		c.burstLoop(ctx)
	} else {
		c.waitLoop(ctx)
	}
	c.http.CloseIdleConnections()
	res.Wall = time.Since(epoch)
	res.Acked = append(res.Acked, c.ring...)
	return res
}
