package scenario

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/mqss"
)

var (
	scenarioLab  = flag.Bool("scenario.lab", false, "run the full fault-scenario lab (real stack, N reruns, writes the artifact)")
	scenarioName = flag.String("scenario.name", "", "restrict -scenario.lab to one scenario")
	scenarioRuns = flag.Int("scenario.runs", 3, "reruns per scenario for -scenario.lab (min 3 for the variance gate)")
	scenarioOut  = flag.String("scenario.out", "BENCH_scenarios.json", "artifact path for -scenario.lab")
)

// TestScenarioLab is the CI release gate: every registered scenario runs
// N >= 3 times against the full stack, the SLO gates are applied to the
// rerun medians, and the provenance-stamped artifact is written whether or
// not the gates pass (a failing artifact is the evidence).
func TestScenarioLab(t *testing.T) {
	if !*scenarioLab {
		t.Skip("pass -scenario.lab to run the fault-scenario lab")
	}
	runs := *scenarioRuns
	if runs < 3 {
		t.Fatalf("-scenario.runs=%d: the variance gate needs at least 3 reruns", runs)
	}
	r := &Runner{Runs: runs, Logf: t.Logf}
	art, err := r.RunAll(*scenarioName)
	if err != nil {
		t.Fatal(err)
	}
	if err := art.WriteFile(*scenarioOut); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (commit %s, %s)", *scenarioOut, art.Provenance.Commit, art.Provenance.GoVersion)
	for _, res := range art.Scenarios {
		for _, g := range res.Gates {
			status := "pass"
			if !g.Pass {
				status = "FAIL"
			}
			t.Logf("%s / %-20s %s: %s", res.Name, g.Name, status, g.Detail)
		}
	}
	if *scenarioName == "" && len(art.Scenarios) < 9 {
		t.Fatalf("scenario registry shrank: %d scenarios, want >= 9", len(art.Scenarios))
	}
	if !art.Pass {
		t.Fatal("scenario lab: SLO release gates tripped (see gate log above)")
	}
}

// smokeSpec shrinks a scenario for the always-on tests: 2 devices, a small
// batch, 2 workers — enough to exercise the whole path in well under a
// second without flag gating.
func smokeSpec(t *testing.T, name string) Spec {
	t.Helper()
	spec, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	spec.Fleet.Devices = 3
	spec.Fleet.Workers = 2
	spec.Load.Jobs = 12
	return spec
}

// TestScenarioSmoke runs one full scenario (reduced load, single run) in
// the regular suite: the deterministic gates — zero lost jobs, terminal
// watch delivery, zero surfaced errors through a device death — must hold
// on every `go test ./...`, not only when the lab flag is up.
func TestScenarioSmoke(t *testing.T) {
	r := &Runner{Runs: 1, Logf: t.Logf}
	res, err := r.RunSpec(smokeSpec(t, "device-death-midbatch"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zero-lost", "watch-terminal", "error-rate"} {
		g := res.Gate(name)
		if g == nil {
			t.Fatalf("gate %q missing", name)
		}
		if !g.Pass {
			t.Errorf("gate %s tripped: %s", g.Name, g.Detail)
		}
	}
}

// TestCrashRecoverySmoke runs the kill -9 scenario (reduced load, single
// run) in the regular suite: the WAL replay path, same-port restart, watch
// re-attach, and the zero-lost/watch-terminal/error-rate gates must hold on
// every `go test ./...`.
func TestCrashRecoverySmoke(t *testing.T) {
	r := &Runner{Runs: 1, Logf: t.Logf}
	res, err := r.RunSpec(smokeSpec(t, "node-crash-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zero-lost", "watch-terminal", "error-rate"} {
		g := res.Gate(name)
		if g == nil {
			t.Fatalf("gate %q missing", name)
		}
		if !g.Pass {
			t.Errorf("gate %s tripped: %s", g.Name, g.Detail)
		}
	}
}

// TestTenantHogSmoke runs the WFQ-isolation scenario (reduced load, single
// run) in the regular suite: the victim tenants' jobs must all complete and
// the scenario-check gate — flood landed, victims whole, per-tenant
// conservation — must hold on every `go test ./...`.
func TestTenantHogSmoke(t *testing.T) {
	r := &Runner{Runs: 1, Logf: t.Logf}
	res, err := r.RunSpec(smokeSpec(t, "tenant-hog"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zero-lost", "watch-terminal", "error-rate", "scenario-check"} {
		g := res.Gate(name)
		if g == nil {
			t.Fatalf("gate %q missing", name)
		}
		if !g.Pass {
			t.Errorf("gate %s tripped: %s", g.Name, g.Detail)
		}
	}
}

// TestOverloadStormSmoke runs the admission-storm scenario (reduced load,
// single run) in the regular suite: the shedder must fire, every shed job
// must land terminal (zero-lost covers chaff), and per-tenant conservation
// must balance across the hundreds of storm users.
func TestOverloadStormSmoke(t *testing.T) {
	r := &Runner{Runs: 1, Logf: t.Logf}
	res, err := r.RunSpec(smokeSpec(t, "overload-storm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zero-lost", "watch-terminal", "error-rate", "scenario-check"} {
		g := res.Gate(name)
		if g == nil {
			t.Fatalf("gate %q missing", name)
		}
		if !g.Pass {
			t.Errorf("gate %s tripped: %s", g.Name, g.Detail)
		}
	}
}

// TestPeerDeathReshardSmoke runs the federated kill -9 scenario (reduced
// load, single run) in the regular suite: heartbeat death detection, the
// retryable-refusal window, WAL-recovered re-admission, and the
// no-loss/no-double-execution invariants must hold on every `go test`.
func TestPeerDeathReshardSmoke(t *testing.T) {
	r := &Runner{Runs: 1, Logf: t.Logf}
	res, err := r.RunSpec(smokeSpec(t, "peer-death-reshard"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zero-lost", "watch-terminal", "error-rate", "scenario-check"} {
		g := res.Gate(name)
		if g == nil {
			t.Fatalf("gate %q missing", name)
		}
		if !g.Pass {
			t.Errorf("gate %s tripped: %s", g.Name, g.Detail)
		}
	}
}

// TestCrossNodeWatchSmoke runs the proxied-watch scenario (reduced load,
// single run) in the regular suite: watch streams attached through
// non-owner members must deliver every terminal event while churned.
func TestCrossNodeWatchSmoke(t *testing.T) {
	r := &Runner{Runs: 1, Logf: t.Logf}
	res, err := r.RunSpec(smokeSpec(t, "cross-node-watch"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zero-lost", "watch-terminal", "error-rate", "scenario-check"} {
		g := res.Gate(name)
		if g == nil {
			t.Fatalf("gate %q missing", name)
		}
		if !g.Pass {
			t.Errorf("gate %s tripped: %s", g.Name, g.Detail)
		}
	}
}

// TestFederatedCrashSmoke: Crash reboots a federated node 0 whole. The
// reboot runs the same boot as the first start, so the rebooted server
// serves the federation routes again, mints inside node 0's ID block with
// node 0's stamp, and heartbeats node 1 back to a steady alive verdict.
func TestFederatedCrashSmoke(t *testing.T) {
	spec := smokeSpec(t, "node-crash-recovery")
	spec.fill()
	spec.Hooks.Setup = func(e *Env) {
		if err := e.EnableDurability(); err != nil {
			t.Fatal(err)
		}
		if err := e.EnableFederation(1); err != nil {
			t.Fatal(err)
		}
	}
	e, err := newEnv(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(e.hs.URL + "/api/v2/federation/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("rebooted node-0: GET /api/v2/federation/status = %d, want 200", resp.StatusCode)
	}

	// A key whose rendezvous owner is node-0 keeps the job on node 0.
	key := "crash-0"
	for i := 1; e.fed.PlaceJob("crash", key) != "node-0"; i++ {
		key = fmt.Sprintf("crash-%d", i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h, err := e.Client.Submit(ctx, mqss.SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5, User: "crash"}, key)
	if err != nil {
		t.Fatal(err)
	}
	job, err := h.Poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	id, err := mqss.ParseJobID(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.Node != "node-0" || id <= e.fed.SelfBase() || id > e.fed.SelfLimit() {
		t.Errorf("job %s via rebooted node-0: node %q, want node-0 and an ID in (%d, %d]",
			job.ID, job.Node, e.fed.SelfBase(), e.fed.SelfLimit())
	}

	time.Sleep(20 * fedLabHeartbeat)
	if !e.Peers[0].fed.Alive("node-0") {
		t.Errorf("node-1 declared the rebooted node-0 dead after 20 heartbeats")
	}
}

// TestScenarioNegativeControl proves the lab can see an unhandled
// incident: the device-death fault is injected but the React hook (mark
// failed, trigger failover) is withheld. The poisoned device stays in the
// rotation, fails fast, looks least-loaded, and eats the batch — the
// error-rate gate must trip. A lab whose gates pass either way gates
// nothing.
func TestScenarioNegativeControl(t *testing.T) {
	r := &Runner{Runs: 1, SkipReact: true, Logf: t.Logf}
	res, err := r.RunSpec(smokeSpec(t, "device-death-midbatch"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("negative control: scenario passed with the recovery machinery withheld")
	}
	g := res.Gate("error-rate")
	if g == nil {
		t.Fatal("error-rate gate missing")
	}
	if g.Pass {
		t.Errorf("error-rate gate should trip without failover; gates: %+v", res.Gates)
	}
	// The failure must be contained: jobs fail, they do not vanish.
	if zl := res.Gate("zero-lost"); zl == nil || !zl.Pass {
		t.Errorf("zero-lost should hold even in the unhandled incident: %+v", zl)
	}
}

// TestRegistry pins the built-in suite's shape: at least the six incident
// classes, unique names and seeds, and defaults that fill to a runnable
// spec.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 9 {
		t.Fatalf("registry has %d scenarios, want >= 9", len(all))
	}
	seeds := map[int64]string{}
	for _, s := range all {
		if s.Seed == 0 {
			t.Errorf("%s: seed must be fixed and non-zero", s.Name)
		}
		if prev, dup := seeds[s.Seed]; dup {
			t.Errorf("%s and %s share seed %d", prev, s.Name, s.Seed)
		}
		seeds[s.Seed] = s.Name
		if s.Hooks.Fault == nil {
			t.Errorf("%s: a scenario without a Fault hook is not a fault scenario", s.Name)
		}
	}
	for _, want := range []string{
		"device-death-midbatch", "calib-drift-midjob", "slow-straggler",
		"watch-churn", "deadline-storm", "maintenance-drain",
		"node-crash-recovery", "tenant-hog", "overload-storm",
		"peer-death-reshard", "cross-node-watch",
	} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("built-in scenario %q missing", want)
		}
	}
	var spec Spec
	spec.fill()
	if spec.Fleet.Devices == 0 || spec.Load.Jobs == 0 || spec.SLO.P95Ms[Warmup] == 0 ||
		spec.SLO.MinRecoveryRatio == 0 || spec.SLO.MaxSpreadPct == 0 || spec.Fleet.ExecLatency == 0 {
		t.Errorf("fill left zero defaults: %+v", spec)
	}
}

// TestGateEvaluation checks the gate math on synthetic aggregates, without
// touching the stack.
func TestGateEvaluation(t *testing.T) {
	spec := Spec{Name: "synthetic", Seed: 1}
	spec.fill()
	mk := func(mutate func(*Result)) *Result {
		res := &Result{Name: "synthetic", Runs: 3, RecoveryRatio: 1.0, WarmupSpreadPct: 5}
		for _, ph := range Phases {
			res.Phases = append(res.Phases, PhaseSummary{
				Phase: ph, Jobs: 32, MedianJobsPerSec: 400,
				MedianP95Ms: 20, P95BoundMs: spec.SLO.P95Ms[ph],
			})
		}
		if mutate != nil {
			mutate(res)
		}
		res.Gates = evaluateGates(spec, res)
		res.Pass = true
		for _, g := range res.Gates {
			if !g.Pass {
				res.Pass = false
			}
		}
		return res
	}

	if res := mk(nil); !res.Pass {
		t.Errorf("clean aggregate should pass all gates: %+v", res.Gates)
	}
	cases := []struct {
		gate   string
		mutate func(*Result)
	}{
		{"p95-latency", func(r *Result) { r.Phases[1].MedianP95Ms = r.Phases[1].P95BoundMs + 1 }},
		{"error-rate", func(r *Result) { r.Phases[1].MaxErrors = 3 }},
		{"zero-lost", func(r *Result) { r.Phases[2].MaxLost = 1 }},
		{"watch-terminal", func(r *Result) { r.Phases[0].MaxWatchMisses = 2 }},
		{"recovery-throughput", func(r *Result) { r.RecoveryRatio = 0.5 }},
		{"variance", func(r *Result) { r.WarmupSpreadPct = 95 }},
	}
	for _, c := range cases {
		res := mk(c.mutate)
		g := res.Gate(c.gate)
		if g == nil {
			t.Fatalf("gate %q missing", c.gate)
		}
		if g.Pass {
			t.Errorf("gate %s should trip, detail: %s", c.gate, g.Detail)
		}
		if res.Pass {
			t.Errorf("result should fail when %s trips", c.gate)
		}
		for _, other := range res.Gates {
			if other.Name != c.gate && !other.Pass {
				t.Errorf("gate %s tripped collaterally when testing %s: %s", other.Name, c.gate, other.Detail)
			}
		}
	}
}

// TestPhaseOrderAndTimeoutConstant pins structural assumptions the runner
// leans on.
func TestPhaseOrderAndTimeoutConstant(t *testing.T) {
	if len(Phases) != 3 || Phases[0] != Warmup || Phases[1] != Inject || Phases[2] != Recovery {
		t.Fatalf("phase order changed: %v", Phases)
	}
	if phaseTimeout < 30*time.Second {
		t.Fatalf("phaseTimeout %v too tight to be a liveness backstop", phaseTimeout)
	}
}
