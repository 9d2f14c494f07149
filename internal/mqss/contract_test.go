package mqss

// Golden-fixture contract tests: the JSON wire shapes of the v1 and v2
// APIs are pinned under testdata/ and any drift fails the fast CI job —
// renaming a field, dropping one, or changing an error body is loud and
// deliberate (regenerate with -update) instead of silent.
//
// Responses are canonicalized before comparison: every numeric leaf is
// zeroed (timings, counts, ids vary run to run; the *fields* are the
// contract) and the outcome-keyed "counts" histogram — whose keys
// themselves are samples — collapses to {}. Strings and booleans stay, so
// lifecycle states, error codes and messages are all pinned byte-for-byte.

import (
	"bytes"
	"encoding/json"
	"flag"

	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/qdmi"
)

var updateGolden = flag.Bool("update", false, "rewrite contract golden files")

// canonicalize normalizes a JSON body for golden comparison.
func canonicalize(t *testing.T, data []byte) string {
	t.Helper()
	var v interface{}
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, data)
	}
	v = normalizeJSON(v, "")
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

func normalizeJSON(v interface{}, key string) interface{} {
	switch x := v.(type) {
	case map[string]interface{}:
		if key == "counts" {
			// Outcome-keyed histogram: the keys are samples, not schema.
			return map[string]interface{}{}
		}
		for k, val := range x {
			x[k] = normalizeJSON(val, k)
		}
		return x
	case []interface{}:
		for i := range x {
			x[i] = normalizeJSON(x[i], key)
		}
		return x
	case float64:
		return 0
	case string:
		if key == "compile_stats" || key == "next_cursor" {
			// Free-text stats and opaque cursors vary with content.
			return "<opaque>"
		}
		return x
	default:
		return v
	}
}

// checkGolden compares a canonicalized body against testdata/<name>.golden.json.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	got := canonicalize(t, body)
	path := filepath.Join("testdata", name+".golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with `go test ./internal/mqss -run TestContract -update`): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("wire-format drift against %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// contractDo issues a request and returns status + body.
func contractDo(t *testing.T, srv *httptest.Server, method, path string, body interface{}, header map[string]string) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestContractV1(t *testing.T) {
	// One worker on one twin device: deterministic shapes.
	f := newTestFleet(t, map[string]*qdmi.Device{
		"alpha": twinDev(t, "alpha", 4, 5, 80),
	}, 1)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)

	req := map[string]interface{}{
		"circuit": circuit.GHZ(3), "shots": 20, "user": "contract", "device": "alpha",
	}
	// The job that gives the read-only routes something to report goes in
	// over v2 — the only submit route there is.
	status, body := contractDo(t, srv, http.MethodPost, "/api/v2/jobs?wait=10s", req, nil)
	if status != http.StatusOK {
		t.Fatalf("v2 submit = %d\n%s", status, body)
	}

	// The removed v1 job routes: one tombstone body for every method and
	// sub-path.
	for _, probe := range [][2]string{
		{http.MethodPost, "/api/v1/jobs"}, {http.MethodGet, "/api/v1/jobs/1"},
		{http.MethodGet, "/api/v1/jobs?limit=2"}, {http.MethodPost, "/api/v1/jobs/batch?stream=1"},
	} {
		status, body = contractDo(t, srv, probe[0], probe[1], req, nil)
		if status != http.StatusGone {
			t.Errorf("%s %s = %d, want 410", probe[0], probe[1], status)
		}
		checkGolden(t, "v1_jobs_gone", body)
	}

	status, body = contractDo(t, srv, http.MethodGet, "/api/v1/device?device=nope", nil, nil)
	if status != http.StatusNotFound {
		t.Errorf("unknown device = %d", status)
	}
	checkGolden(t, "v1_error_not_found", body)

	status, body = contractDo(t, srv, http.MethodDelete, "/api/v1/device", nil, nil)
	if status != http.StatusMethodNotAllowed {
		t.Errorf("bad method = %d", status)
	}
	checkGolden(t, "v1_error_method", body)

	_, body = contractDo(t, srv, http.MethodGet, "/api/v1/metrics", nil, nil)
	checkGolden(t, "v1_fleet_metrics", body)

	_, body = contractDo(t, srv, http.MethodGet, "/healthz", nil, nil)
	checkGolden(t, "v1_fleet_healthz", body)
}

func TestContractV2(t *testing.T) {
	f, server := pacedStack(t, 81, 0, 1)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	sreq := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 20, User: "contract", Priority: 1}

	// Async accept: 202 + Location + non-terminal body. The device is
	// drained so the job parks (queued, no placement yet) instead of racing
	// the worker.
	if err := f.Drain(pacedDevice); err != nil {
		t.Fatal(err)
	}
	status, body := contractDo(t, srv, http.MethodPost, "/api/v2/jobs", sreq, nil)
	if status != http.StatusAccepted {
		t.Fatalf("v2 submit = %d\n%s", status, body)
	}
	checkGolden(t, "v2_submit_accepted", body)

	// Completed record via wait long-poll.
	if err := f.Resume(pacedDevice); err != nil {
		t.Fatal(err)
	}
	status, body = contractDo(t, srv, http.MethodPost, "/api/v2/jobs?wait=10s", sreq, nil)
	if status != http.StatusOK {
		t.Fatalf("v2 submit?wait = %d\n%s", status, body)
	}
	checkGolden(t, "v2_job_done", body)

	_, body = contractDo(t, srv, http.MethodGet, "/api/v2/jobs?limit=1", nil, nil)
	checkGolden(t, "v2_list", body)

	status, body = contractDo(t, srv, http.MethodGet, "/api/v2/jobs/j-424242", nil, nil)
	if status != http.StatusNotFound {
		t.Errorf("v2 unknown job = %d", status)
	}
	checkGolden(t, "v2_error_not_found", body)

	status, body = contractDo(t, srv, http.MethodGet, "/api/v2/jobs/zzz", nil, nil)
	if status != http.StatusBadRequest {
		t.Errorf("v2 bad id = %d", status)
	}
	checkGolden(t, "v2_error_bad_id", body)

	status, body = contractDo(t, srv, http.MethodPut, "/api/v2/jobs", nil, nil)
	if status != http.StatusMethodNotAllowed {
		t.Errorf("v2 bad method = %d", status)
	}
	checkGolden(t, "v2_error_method", body)

	// Cancel of a terminal job: the conflict envelope.
	status, body = contractDo(t, srv, http.MethodDelete, "/api/v2/jobs/j-2", nil, nil)
	if status != http.StatusConflict {
		t.Errorf("v2 cancel terminal = %d\n%s", status, body)
	}
	checkGolden(t, "v2_error_conflict", body)

	// Watch stream of a terminal job: exactly the snapshot event line.
	_, body = contractDo(t, srv, http.MethodGet, "/api/v2/jobs/j-2/events", nil, nil)
	checkGolden(t, "v2_events_snapshot", body)

	// The submission comes back on a read of the job, never on a POST.
	status, body = contractDo(t, srv, http.MethodGet, "/api/v2/jobs/j-2", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("v2 get = %d\n%s", status, body)
	}
	checkGolden(t, "v2_job_get", body)
}

// TestContractV2Trace pins the span-tree wire shape: span names, nesting,
// and attribute keys are API surface (qhpcctl trace and dashboards parse
// them); timings are zeroed by canonicalization like every other numeric.
func TestContractV2Trace(t *testing.T) {
	_, server := pacedStack(t, 83, 0, 1)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	sreq := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 20, User: "contract"}
	// A fixed client request id keeps the root span's request_id attr
	// deterministic for the golden.
	status, body := contractDo(t, srv, http.MethodPost, "/api/v2/jobs?wait=10s", sreq,
		map[string]string{"X-Request-ID": "req-contract-1"})
	if status != http.StatusOK {
		t.Fatalf("v2 submit?wait = %d\n%s", status, body)
	}

	status, body = contractDo(t, srv, http.MethodGet, "/api/v2/jobs/j-1/trace", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("v2 trace = %d\n%s", status, body)
	}
	checkGolden(t, "v2_trace", body)
}

func TestContractV2Fleet(t *testing.T) {
	f := newTestFleet(t, map[string]*qdmi.Device{
		"alpha": twinDev(t, "alpha", 4, 5, 82),
	}, 1)
	srv := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(srv.Close)

	sreq := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "contract", Device: "alpha"}
	status, body := contractDo(t, srv, http.MethodPost, "/api/v2/jobs?wait=10s", sreq, nil)
	if status != http.StatusOK {
		t.Fatalf("v2 fleet submit = %d\n%s", status, body)
	}
	checkGolden(t, "v2_fleet_job_done", body)
}

// TestContractV2Admission pins the admission-control wire surface: the
// uniform envelopes for malformed query parameters, the 429 rate-limit
// refusal (with its Retry-After header), and the admin tenants snapshot.
func TestContractV2Admission(t *testing.T) {
	_, server := pacedStack(t, 84, 0, 1)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	sreq := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 20, User: "contract"}

	// Malformed ?wait= / ?cursor=: structured invalid_request envelopes,
	// never a bare-text 400.
	status, body := contractDo(t, srv, http.MethodPost, "/api/v2/jobs?wait=bogus", sreq, nil)
	if status != http.StatusBadRequest {
		t.Errorf("bad wait = %d\n%s", status, body)
	}
	checkGolden(t, "v2_error_bad_wait", body)

	status, body = contractDo(t, srv, http.MethodGet, "/api/v2/jobs?cursor=%21%21", nil, nil)
	if status != http.StatusBadRequest {
		t.Errorf("bad cursor = %d\n%s", status, body)
	}
	checkGolden(t, "v2_error_bad_cursor", body)

	// Token bucket of one: the second immediate submission is refused 429
	// with a Retry-After hint and a retryable envelope.
	server.SetTenantLimits(0.5, 1)
	if status, body := contractDo(t, srv, http.MethodPost, "/api/v2/jobs?wait=10s", sreq, nil); status != http.StatusOK {
		t.Fatalf("first submit = %d\n%s", status, body)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/v2/jobs", bytes.NewReader(mustJSON(t, sreq)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled submit = %d\n%s", resp.StatusCode, buf.Bytes())
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}
	checkGolden(t, "v2_error_rate_limited", buf.Bytes())

	_, body = contractDo(t, srv, http.MethodGet, "/api/v2/admin/tenants", nil, nil)
	checkGolden(t, "v2_admin_tenants", body)
}

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestContractGoldensPresent fails fast (with a helpful message) when the
// fixture directory is missing entirely — e.g. a fresh checkout that lost
// testdata.
func TestContractGoldensPresent(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatalf("testdata missing: %v (regenerate with -update)", err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".golden.json") {
			n++
		}
	}
	if n < 10 {
		t.Fatalf("only %d golden fixtures present; expected the full contract set", n)
	}
}
