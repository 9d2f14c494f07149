package mqss

// Exposition lint for GET /metrics, run by the CI lint job: every line
// must parse as Prometheus text format, every family needs HELP and TYPE
// before its samples, and every family name must be documented in
// docs/OBSERVABILITY.md — adding a metric without documenting it fails
// here, not in a dashboard review six weeks later.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

var promSampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*")*\})? (NaN|[+-]Inf|[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)$`)

// checkExposition parses one /metrics body and returns the family names.
func checkExposition(t *testing.T, body string) map[string]bool {
	t.Helper()
	families := map[string]bool{} // family -> samples seen
	typed := map[string]string{}
	helped := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Errorf("malformed HELP line: %q", line)
				continue
			}
			helped[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			name, kind := parts[0], parts[1]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("unknown metric type %q in %q", kind, line)
			}
			if !helped[name] {
				t.Errorf("TYPE before HELP for %s", name)
			}
			typed[name] = kind
			families[name] = false
		case line == "":
			t.Error("blank line in exposition")
		default:
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("unparseable sample line: %q", line)
				continue
			}
			family := m[1]
			// Histogram samples carry the family name plus a series suffix.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(family, suffix)
				if base != family && typed[base] == "histogram" {
					family = base
					break
				}
			}
			if _, ok := typed[family]; !ok {
				t.Errorf("sample without TYPE: %q", line)
				continue
			}
			families[family] = true
		}
	}
	for name, sampled := range families {
		if !sampled {
			t.Errorf("family %s declared but emitted no samples", name)
		}
	}
	return families
}

func scrapeMetrics(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	status, body := contractDo(t, srv, http.MethodGet, "/metrics", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d\n%s", status, body)
	}
	return string(body)
}

func TestMetricsExposition(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("every exported metric must be documented: %v", err)
	}

	// A 1-device and a 3-device server from the same helper, one job through
	// each so pipeline counters move: a single-QPU deployment is just a
	// smaller roster, so the family sets must be identical. A (generous)
	// rate limit is attached so the tenant throttle families are exercised.
	sreq := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "prom"}
	scrapeFleet := func(devices int) map[string]bool {
		devs := map[string]*qdmi.Device{}
		for i := 0; i < devices; i++ {
			name := fmt.Sprintf("dev-%d", i)
			devs[name] = twinDev(t, name, 4, 5, 92+int64(i))
		}
		server := NewFleetServer(newTestFleet(t, devs, 1))
		server.SetTenantLimits(1000, 100)
		srv := httptest.NewServer(server)
		t.Cleanup(srv.Close)
		if status, body := contractDo(t, srv, http.MethodPost, "/api/v2/jobs?wait=10s", sreq, nil); status != http.StatusOK {
			t.Fatalf("%d-device submit = %d\n%s", devices, status, body)
		}
		return checkExposition(t, scrapeMetrics(t, srv))
	}
	families := scrapeFleet(1)
	three := scrapeFleet(3)
	for name := range three {
		if _, ok := families[name]; !ok {
			t.Errorf("family %s exported by the 3-device server only", name)
		}
	}
	for name := range families {
		if _, ok := three[name]; !ok {
			t.Errorf("family %s exported by the 1-device server only", name)
		}
	}

	// Store-backed fleet stack: adds the qhpc_wal_* families.
	df, dserver, dsrv, _ := durableStack(t, t.TempDir())
	t.Cleanup(func() { dserver.Close(); dsrv.Close(); df.Stop() })
	if status, body := contractDo(t, dsrv, http.MethodPost, "/api/v2/jobs?wait=10s", sreq, nil); status != http.StatusOK {
		t.Fatalf("durable submit = %d\n%s", status, body)
	}
	durableFamilies := checkExposition(t, scrapeMetrics(t, dsrv))
	if !durableFamilies["qhpc_wal_appends_total"] {
		t.Error("store-backed server exported no qhpc_wal_appends_total samples")
	}
	for name := range durableFamilies {
		families[name] = true
	}

	if len(families) == 0 {
		t.Fatal("no metric families scraped")
	}
	for name := range families {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("metric %s is exported but not documented in docs/OBSERVABILITY.md", name)
		}
	}
}

// TestMetricsScrapeAllocs pins what one in-process GET /metrics allocates on
// a two-device fleet with four tenants: ~250 objects, none per sample line
// or label value, as each family's lines append into one growing buffer.
// An fmt.Sprintf per line made it ~3 400; a strings.Replacer built for every
// label value on top, ~8 500, a third of the scrape's CPU.
func TestMetricsScrapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race; CI runs this gate as its own non-race step")
	}
	const ceiling = 300
	f := newTestFleet(t, map[string]*qdmi.Device{"a": twinDev(t, "a", 2, 2, 9), "b": twinDev(t, "b", 2, 2, 10)}, 1)
	server := NewFleetServer(f)
	for i := 0; i < 12; i++ {
		if _, err := f.Submit(qrm.Request{Circuit: circuit.GHZ(2), Shots: 5, User: fmt.Sprintf("u%d", i%4)}, fleet.SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	f.WaitSettled()
	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := &discardWriter{h: http.Header{}}
	server.ServeHTTP(w, r)
	allocs := testing.AllocsPerRun(20, func() { server.ServeHTTP(w, r) })
	t.Logf("one /metrics render: %.0f allocs", allocs)
	if allocs > ceiling {
		t.Errorf("one /metrics render: %.0f allocs, ceiling %d", allocs, ceiling)
	}
}
