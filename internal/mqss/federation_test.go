package mqss

// End-to-end federation tests: N in-process fleet servers joined into one
// federation over real HTTP, exercising hash placement with forwarded
// submits, owner proxying for reads/cancels/watch streams, the loop
// guard, dead-owner refusals, and the qhpc_fed_* exposition.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/federation"
	"repro/internal/qdmi"
)

type fedMember struct {
	name   string
	server *Server
	hs     *httptest.Server
	fed    *federation.Node
}

// fedStack builds n federated fleet servers (one device each) with
// heartbeats running at hb. Returned members are cleaned up by t.
func fedStack(t *testing.T, n int, hb, dead time.Duration) []*fedMember {
	t.Helper()
	members := make([]*fedMember, n)
	urls := map[string]string{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node-%c", 'a'+i)
		f := newTestFleet(t, map[string]*qdmi.Device{
			"dev-" + name: twinDev(t, "dev-"+name, 4, 5, int64(40+i)),
		}, 2)
		server := NewFleetServer(f)
		hs := httptest.NewServer(server)
		t.Cleanup(func() { server.Close(); hs.Close() })
		urls[name] = hs.URL
		members[i] = &fedMember{name: name, server: server, hs: hs}
	}
	for _, m := range members {
		peers := map[string]string{}
		for id, u := range urls {
			if id != m.name {
				peers[id] = u
			}
		}
		fed, err := federation.New(federation.Config{
			NodeID: m.name, SelfURL: urls[m.name], Peers: peers,
			HeartbeatEvery: hb, DeadAfter: dead,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.fed = fed
		m.server.AttachFederation(fed)
		t.Cleanup(fed.Close)
	}
	if hb > 0 {
		for _, m := range members {
			m.fed.Start()
		}
	}
	return members
}

func byName(members []*fedMember, name string) *fedMember {
	for _, m := range members {
		if m.name == name {
			return m
		}
	}
	return nil
}

// other returns any member that is not name.
func other(members []*fedMember, name string) *fedMember {
	for _, m := range members {
		if m.name != name {
			return m
		}
	}
	return nil
}

func TestFederationForwardedSubmitAndProxy(t *testing.T) {
	members := fedStack(t, 3, 0, 0)
	entry := members[0]

	req := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "fed-tenant"}
	hdr := map[string]string{"Idempotency-Key": "fed-key-1"}
	resp := postV2(t, entry.hs, "/api/v2/jobs?wait=10s", req, hdr)
	job := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || job.State != StateDone {
		t.Fatalf("federated submit = %d, state %s", resp.StatusCode, job.State)
	}
	wantOwner := entry.fed.PlaceJob("fed-tenant", "fed-key-1")
	if job.Node != wantOwner {
		t.Fatalf("job landed on %q, rendezvous owner is %q", job.Node, wantOwner)
	}
	if job.Device != "dev-"+wantOwner {
		t.Fatalf("job executed on %q, want the owner's device", job.Device)
	}
	if owner := entry.fed.OwnerOfJobID(mustParseJobID(t, job.ID)); owner != wantOwner {
		t.Fatalf("ID %s maps to owner %q, want %q", job.ID, owner, wantOwner)
	}
	if wantOwner != entry.name {
		if m := entry.fed.Metrics(); m.ForwardedSubmits == 0 {
			t.Fatalf("submit crossed nodes but forwarded counter = %+v", m)
		}
	}

	// The job reads identically through every member.
	for _, m := range members {
		status, body := contractDo(t, m.hs, http.MethodGet, "/api/v2/jobs/"+job.ID, nil, nil)
		if status != http.StatusOK {
			t.Fatalf("GET via %s = %d\n%s", m.name, status, body)
		}
		var got Job
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Node != wantOwner || got.State != StateDone || got.ID != job.ID {
			t.Fatalf("via %s: got node=%q state=%s id=%s", m.name, got.Node, got.State, got.ID)
		}
	}

	// Same key through a DIFFERENT entry node replays the original
	// submission instead of executing twice.
	resp = postV2(t, other(members, wantOwner).hs, "/api/v2/jobs", req, hdr)
	replayed := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("cross-node replay missing Idempotency-Replayed header (status %d)", resp.StatusCode)
	}
	if replayed.ID != job.ID {
		t.Fatalf("cross-node replay returned %s, want %s", replayed.ID, job.ID)
	}

	// The proxied trace shows the cross-node leg when the submit hopped.
	if wantOwner != entry.name {
		status, body := contractDo(t, entry.hs, http.MethodGet, "/api/v2/jobs/"+job.ID+"/trace", nil, nil)
		if status != http.StatusOK {
			t.Fatalf("proxied trace = %d\n%s", status, body)
		}
		if !bytes.Contains(body, []byte("fed-forward")) || !bytes.Contains(body, []byte(entry.name)) {
			t.Fatalf("trace lacks the fed-forward leg from %s:\n%s", entry.name, body)
		}
	}

	// The federation status and owner directory answer on every node.
	var st federation.Status
	status, body := contractDo(t, entry.hs, http.MethodGet, "/api/v2/federation/status", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("federation status = %d", status)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 3 || st.Alive != 3 {
		t.Fatalf("status = %+v", st)
	}
	var info federation.OwnerInfo
	status, body = contractDo(t, other(members, wantOwner).hs, http.MethodGet,
		"/api/v2/federation/owner?id="+job.ID, nil, nil)
	if status != http.StatusOK {
		t.Fatalf("owner lookup = %d\n%s", status, body)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Node != wantOwner {
		t.Fatalf("owner lookup = %+v, want node %q", info, wantOwner)
	}
}

func TestFederationCrossNodeWatchAndCancel(t *testing.T) {
	members := fedStack(t, 2, 0, 0)
	entry := members[0]

	// Find a key owned by the OTHER node so the watch must proxy.
	key, owner := "", ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("watch-key-%d", i)
		if o := entry.fed.PlaceJob("watcher", k); o != entry.name {
			key, owner = k, o
			break
		}
	}
	if key == "" {
		t.Fatal("no key hashed to the peer in 64 tries")
	}

	req := SubmitRequest{Circuit: circuit.GHZ(4), Shots: 10, User: "watcher"}
	resp := postV2(t, entry.hs, "/api/v2/jobs", req, map[string]string{"Idempotency-Key": key})
	job := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	if job.Node != owner {
		t.Fatalf("job on %q, want %q", job.Node, owner)
	}

	// Watch via the NON-owner node: the stream proxies to the owner and
	// must deliver a terminal event.
	wresp, err := http.Get(entry.hs.URL + "/api/v2/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if ct := wresp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("proxied watch content-type = %q", ct)
	}
	sawTerminal := false
	sc := bufio.NewScanner(wresp.Body)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.State.Terminal() {
			sawTerminal = true
			break
		}
	}
	if !sawTerminal {
		t.Fatal("proxied watch stream ended without a terminal event")
	}
	if m := entry.fed.Metrics(); m.ProxiedStreams == 0 {
		t.Fatalf("watch crossed nodes but stream counter = %+v", m)
	}

	// Cancel through the non-owner: a fresh queued job on the peer.
	key2 := ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("cancel-key-%d", i)
		if entry.fed.PlaceJob("watcher", k) != entry.name {
			key2 = k
			break
		}
	}
	resp = postV2(t, entry.hs, "/api/v2/jobs", req, map[string]string{"Idempotency-Key": key2})
	job2 := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	dreq, _ := http.NewRequest(http.MethodDelete, entry.hs.URL+"/api/v2/jobs/"+job2.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	// Accepted (202) when the cancel landed in time, conflict (409) when
	// the 2-worker pool already finished it; both prove the proxy path.
	if dresp.StatusCode != http.StatusAccepted && dresp.StatusCode != http.StatusConflict {
		t.Fatalf("proxied cancel = %d", dresp.StatusCode)
	}
}

func TestFederationLoopGuardAndDeadOwner(t *testing.T) {
	members := fedStack(t, 2, 15*time.Millisecond, 90*time.Millisecond)
	a, b := members[0], members[1]

	// Loop guard: a request claiming it was already proxied, sent to a
	// node that does not own the job, is a membership misconfiguration
	// and must fail loudly rather than hop again.
	foreign := FormatJobID(b.fed.SelfBase() + 1) // owned by b
	greq, _ := http.NewRequest(http.MethodGet, a.hs.URL+"/api/v2/jobs/"+foreign, nil)
	greq.Header.Set(federation.HeaderForwardedFrom, "node-x")
	gresp, err := http.DefaultClient.Do(greq)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusBadGateway {
		t.Fatalf("double-proxied request = %d, want 502", gresp.StatusCode)
	}

	// Dead owner: kill b — its heartbeater first (a real crash takes both),
	// wait for the verdict, then ask a for a job b owns — a retryable 503,
	// never a silent re-placement.
	b.fed.Close()
	b.server.Close()
	b.hs.Close()
	deadline := time.Now().Add(3 * time.Second)
	for a.fed.Alive(b.name) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if a.fed.Alive(b.name) {
		t.Fatal("peer never declared dead")
	}
	status, body := contractDo(t, a.hs, http.MethodGet, "/api/v2/jobs/"+foreign, nil, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("read of dead owner's job = %d\n%s", status, body)
	}
	var apiErr APIError
	if err := json.Unmarshal(body, &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != CodeUnavailable || !apiErr.Retryable {
		t.Fatalf("dead-owner envelope = %+v, want retryable unavailable", apiErr)
	}
}

func TestFederationMetricsExposition(t *testing.T) {
	members := fedStack(t, 2, 0, 0)
	entry := members[0]
	req := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 5, User: "prom-fed"}
	if status, body := contractDo(t, entry.hs, http.MethodPost, "/api/v2/jobs?wait=10s", req, nil); status != http.StatusOK {
		t.Fatalf("submit = %d\n%s", status, body)
	}
	families := checkExposition(t, scrapeMetrics(t, entry.hs))
	for _, want := range []string{
		"qhpc_fed_peers_alive", "qhpc_fed_peers_dead",
		"qhpc_fed_heartbeats_sent_total", "qhpc_fed_heartbeats_failed_total",
		"qhpc_fed_forwarded_submits_total", "qhpc_fed_proxied_reads_total",
		"qhpc_fed_proxied_streams_total", "qhpc_fed_proxy_errors_total",
	} {
		if !families[want] {
			t.Errorf("federated /metrics lacks %s", want)
		}
	}
}

func mustParseJobID(t *testing.T, s string) int {
	t.Helper()
	id, err := ParseJobID(s)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestStandaloneIgnoresForwardedHeader pins the nil-federation guard in
// v2Submit: a server that is not a federation member must serve a
// submission carrying X-QHPC-Forwarded-From (a stray or misdirected
// proxy header) normally instead of panicking in the fed-forward trace
// leg — the panic would land after the job was already accepted, so the
// client would lose the job ID for a committed side effect.
func TestStandaloneIgnoresForwardedHeader(t *testing.T) {
	f := newTestFleet(t, map[string]*qdmi.Device{
		"dev-solo": twinDev(t, "dev-solo", 4, 5, 99),
	}, 2)
	server := NewFleetServer(f)
	hs := httptest.NewServer(server)
	t.Cleanup(func() { server.Close(); hs.Close() })

	req := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 5, User: "solo"}
	resp := postV2(t, hs, "/api/v2/jobs?wait=10s", req, map[string]string{
		federation.HeaderForwardedFrom: "node-ghost",
	})
	job := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || job.State != StateDone {
		t.Fatalf("standalone submit with forwarded header = %d, state %s", resp.StatusCode, job.State)
	}
}
