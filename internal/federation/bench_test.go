package federation_test

// Federation throughput harness: the fleet bench's paced-twin workload
// (GHZ jobs, 2 ms control-electronics round trip, 4 workers/device)
// driven through a federation of full qhpcd-style nodes over real HTTP —
// placement forwarding, owner proxying, and per-node worker pools all on
// the path. The "federation" section lands in BENCH_fleet.json next to
// the in-process fleet rows, so the artifact answers "what does sharding
// the fleet across nodes buy" across PRs. The release gate requires the
// 3-node federation to clear 2.2x a single node's throughput.
//
// Run order matters for the artifact: TestFleetBenchArtifact (internal/
// fleet) rewrites BENCH_fleet.json from scratch; this test then merges
// its section in. CI runs them in that order.

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/mqss"
	"repro/internal/qdmi"
	"repro/internal/telemetry"
)

var (
	fedBench    = flag.Bool("fed.bench", false, "run the federation scaling bench and merge its section into the fleet artifact")
	fedBenchOut = flag.String("fed.bench.out", "BENCH_fleet.json", "fleet bench artifact to merge the federation section into")
)

const (
	// The per-node capacity is deliberately small (devices x workers /
	// exec latency = 200 jobs/s) so the measurement is bound by device
	// capacity, not by loopback HTTP: adding nodes then adds capacity,
	// and the proxy hops must cost less than the capacity they unlock.
	fedBenchWorkers = 2
	fedBenchDevices = 2 // per node
	fedBenchLatency = 20 * time.Millisecond
	fedBenchJobs    = 192
	fedBenchReruns  = 3
	// fedBenchLanes parallelizes submission so the client side never
	// becomes the bottleneck the devices should be: 3 nodes offer
	// 600 jobs/s, and at ~40 ms per submit+watch round trip that needs
	// at least ~24 jobs in flight to saturate.
	fedBenchLanes = 32
)

// fedBenchRow is one node-count row of the federation section.
type fedBenchRow struct {
	Nodes      int     `json:"nodes"`
	Devices    int     `json:"devices_per_node"`
	Workers    int     `json:"workers_per_device"`
	Jobs       int     `json:"jobs"`
	Reruns     int     `json:"reruns"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	SpreadPct  float64 `json:"spread_pct"`
}

// fedBenchSection is the artifact schema recorded under "federation".
type fedBenchSection struct {
	Harness string        `json:"harness"`
	Rows    []fedBenchRow `json:"rows"`
	// Speedup3v1 is 3-node over 1-node median throughput; the release gate
	// requires >= 2.2x (cross-node proxying may cost at most ~27% of
	// perfect 3x scaling).
	Speedup3v1 float64 `json:"speedup_3_nodes_over_1"`
}

// fedBenchNode is one federation member of the bench stack.
type fedBenchNode struct {
	name   string
	server *mqss.Server
	hs     *httptest.Server
	fed    *federation.Node
	fleet  *fleet.Scheduler
	client *mqss.Client
}

// buildFedBenchStack assembles n federated nodes, each a fleet of paced
// twin devices behind a live v2 listener. Caller must close().
func buildFedBenchStack(t *testing.T, n int) []*fedBenchNode {
	t.Helper()
	nodes := make([]*fedBenchNode, n)
	urls := map[string]string{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("bench-node-%d", i)
		f := fleet.New(fleet.PolicyLeastLoaded, nil)
		for d := 0; d < fedBenchDevices; d++ {
			devName := fmt.Sprintf("%s-dev-%d", name, d)
			qpu, err := device.New(device.Config{
				Name: devName, Rows: 4, Cols: 5,
				Seed: int64(100*i + d + 1), DigitalTwin: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			qpu.SetExecLatency(fedBenchLatency)
			if err := f.AddDevice(devName, qdmi.NewDevice(qpu, nil), fedBenchWorkers); err != nil {
				t.Fatal(err)
			}
		}
		server := mqss.NewFleetServer(f)
		hs := httptest.NewServer(server)
		hs.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = fedBenchJobs
		urls[name] = hs.URL
		nodes[i] = &fedBenchNode{name: name, server: server, hs: hs, fleet: f}
	}
	for _, nd := range nodes {
		peers := map[string]string{}
		for id, u := range urls {
			if id != nd.name {
				peers[id] = u
			}
		}
		fed, err := federation.New(federation.Config{
			NodeID: nd.name, SelfURL: urls[nd.name], Peers: peers,
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.fed = fed
		nd.server.AttachFederation(fed)
		nd.client = mqss.NewRemoteClient(nd.hs.URL, nd.hs.Client())
	}
	return nodes
}

func closeFedBenchStack(nodes []*fedBenchNode) {
	for _, nd := range nodes {
		nd.fed.Close()
		nd.server.Close()
		nd.hs.Close()
		nd.fleet.Stop()
	}
}

// runFedLoad drives the workload through an n-node federation: submissions
// enter round-robin across every member (as a load balancer would spread
// clients), placement forwards each to its owner, and one watch stream per
// job rides a proxy whenever the entry node is not the owner.
func runFedLoad(t *testing.T, n int) (jps, p50, p95 float64) {
	t.Helper()
	nodes := buildFedBenchStack(t, n)
	defer closeFedBenchStack(nodes)
	circs := []*circuit.Circuit{circuit.GHZ(3), circuit.GHZ(4), circuit.GHZ(5), circuit.GHZ(6)}
	ctx := t.Context()

	start := time.Now()
	latencies := make([]float64, fedBenchJobs)
	var wg sync.WaitGroup
	var mu sync.Mutex
	failures := 0
	for lane := 0; lane < fedBenchLanes; lane++ {
		lane := lane
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lane; i < fedBenchJobs; i += fedBenchLanes {
				entry := nodes[i%len(nodes)]
				submitted := time.Now()
				h, err := entry.client.Submit(ctx, mqss.SubmitRequest{
					Circuit: circs[i%len(circs)], Shots: 10,
					User: fmt.Sprintf("bench-%02d", i%8),
				}, "")
				if err != nil {
					t.Error(err)
					return
				}
				job, err := h.Watch(ctx, nil)
				lat := float64(time.Since(submitted).Microseconds()) / 1000
				mu.Lock()
				latencies[i] = lat
				if err != nil || job.State != mqss.StateDone {
					failures++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if failures > 0 {
		t.Fatalf("%d/%d federated jobs failed", failures, fedBenchJobs)
	}
	if n > 1 {
		crossed := uint64(0)
		for _, nd := range nodes {
			crossed += nd.fed.Metrics().ForwardedSubmits
		}
		if crossed == 0 {
			t.Fatal("no submission ever crossed nodes: the bench measured nothing federated")
		}
	}
	sort.Float64s(latencies)
	return float64(fedBenchJobs) / elapsed.Seconds(),
		latencies[fedBenchJobs/2], latencies[fedBenchJobs*95/100]
}

// TestFederationBenchArtifact measures federated jobs/s at 1 and 3 nodes
// and merges the "federation" section into BENCH_fleet.json. Gated behind
// -fed.bench so the regular test run stays timing-free; CI runs it in the
// federation-lab job and fails loudly if cross-node scaling collapses.
func TestFederationBenchArtifact(t *testing.T) {
	if !*fedBench {
		t.Skip("pass -fed.bench to run the federation scaling harness")
	}
	section := fedBenchSection{
		Harness: "go test ./internal/federation -run TestFederationBenchArtifact -fed.bench",
	}
	for _, n := range []int{1, 3} {
		var jpsRuns, p50Runs, p95Runs []float64
		for r := 0; r < fedBenchReruns; r++ {
			jps, p50, p95 := runFedLoad(t, n)
			jpsRuns = append(jpsRuns, jps)
			p50Runs = append(p50Runs, p50)
			p95Runs = append(p95Runs, p95)
		}
		row := fedBenchRow{
			Nodes: n, Devices: fedBenchDevices, Workers: fedBenchWorkers,
			Jobs: fedBenchJobs, Reruns: fedBenchReruns,
			JobsPerSec: telemetry.Median(jpsRuns),
			P50Ms:      telemetry.Median(p50Runs),
			P95Ms:      telemetry.Median(p95Runs),
			SpreadPct:  telemetry.SpreadPct(jpsRuns),
		}
		section.Rows = append(section.Rows, row)
		t.Logf("%d node(s): median %.0f jobs/s over %d runs (spread %.1f%%), p50 %.2f ms, p95 %.2f ms",
			n, row.JobsPerSec, fedBenchReruns, row.SpreadPct, row.P50Ms, row.P95Ms)
	}
	section.Speedup3v1 = section.Rows[1].JobsPerSec / section.Rows[0].JobsPerSec

	// Merge into the fleet artifact without disturbing its other sections.
	art := map[string]interface{}{}
	if data, err := os.ReadFile(*fedBenchOut); err == nil {
		if err := json.Unmarshal(data, &art); err != nil {
			t.Fatalf("parsing %s: %v", *fedBenchOut, err)
		}
	}
	art["federation"] = section
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*fedBenchOut, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("merged federation section into %s (3-vs-1 node speedup: %.2fx)", *fedBenchOut, section.Speedup3v1)
	if section.Speedup3v1 < 2.2 {
		t.Fatalf("federation scaling regression: 3 nodes gave %.2fx over 1, want >= 2.2x", section.Speedup3v1)
	}
}
