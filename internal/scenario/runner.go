package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/mqss"
	"repro/internal/telemetry"
)

// phaseTimeout bounds how long one phase may take to settle. It is a
// liveness backstop, not an SLO: a job still non-terminal at the deadline
// is counted lost, which fails the zero-lost gate loudly.
const phaseTimeout = 90 * time.Second

// Runner executes scenarios and aggregates reruns into gated results.
type Runner struct {
	// Runs is the rerun count per scenario (minimum, and default, 3 — a
	// single run can't tell a regression from a hiccup).
	Runs int
	// SkipReact withholds every scenario's React hook: the fault lands and
	// the control plane does nothing. This is the negative control — gates
	// must trip, proving the lab detects unhandled incidents.
	SkipReact bool
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...interface{})
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

func (r *Runner) runs() int {
	if r.Runs < 1 {
		return 3
	}
	return r.Runs
}

// phaseStats is one phase of one run, measured at the v2 client.
type phaseStats struct {
	jobs        int
	jobsPerSec  float64
	p50Ms       float64
	p95Ms       float64
	errors      int // measured jobs that terminated failed/cancelled
	lost        int // submitted IDs that never reached a terminal state
	watchMisses int // terminal reached but the watch stream never said so
	chaffJobs   int
	chaffLost   int
	worstJobID  string  // slowest measured job, the trace-dump candidate
	worstLatMs  float64 // its end-to-end latency
}

// PhaseSummary is the cross-run aggregate of one phase.
type PhaseSummary struct {
	Phase            Phase   `json:"phase"`
	Jobs             int     `json:"jobs"`
	MedianJobsPerSec float64 `json:"median_jobs_per_sec"`
	MedianP50Ms      float64 `json:"median_p50_ms"`
	MedianP95Ms      float64 `json:"median_p95_ms"`
	P95BoundMs       float64 `json:"p95_bound_ms"`
	MaxErrors        int     `json:"max_errors"`
	MaxLost          int     `json:"max_lost"`
	MaxWatchMisses   int     `json:"max_watch_misses"`
	ChaffJobs        int     `json:"chaff_jobs,omitempty"`
}

// Gate is one pass/fail release check with its evidence.
type Gate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Result is one scenario's gated aggregate across reruns.
type Result struct {
	Name            string         `json:"name"`
	Description     string         `json:"description"`
	Seed            int64          `json:"seed"`
	Runs            int            `json:"runs"`
	Phases          []PhaseSummary `json:"phases"`
	RecoveryRatio   float64        `json:"recovery_ratio"`
	WarmupSpreadPct float64        `json:"warmup_spread_pct"`
	// DeviceE2EP95Ms is the worst per-device dispatch-pipeline e2e p95 of
	// the final run — the server-side view alongside the client-side SLOs.
	DeviceE2EP95Ms float64 `json:"device_e2e_p95_ms"`
	// CheckFailures collects per-run failures of the scenario's Check hook;
	// empty when the hook held every run (or the scenario has none).
	CheckFailures []string `json:"check_failures,omitempty"`
	// IllegalTransitions counts job moves outside fleet's lifecycle table,
	// over all runs and every scheduler they built. Zero is a gate.
	IllegalTransitions uint64 `json:"illegal_transitions"`
	Gates              []Gate `json:"gates"`
	Pass               bool   `json:"pass"`
	// WorstJobTrace is the span tree of the slowest measured job across all
	// runs, attached only when a gate fails: the first diagnostic an operator
	// wants is "where did the slow job spend its time".
	WorstJobID    string          `json:"worst_job_id,omitempty"`
	WorstJobLatMs float64         `json:"worst_job_lat_ms,omitempty"`
	WorstJobTrace json.RawMessage `json:"worst_job_trace,omitempty"`
}

// Gate looks up one gate by name.
func (res *Result) Gate(name string) *Gate {
	for i := range res.Gates {
		if res.Gates[i].Name == name {
			return &res.Gates[i]
		}
	}
	return nil
}

// Provenance stamps the artifact with where its numbers came from.
type Provenance struct {
	GoVersion   string `json:"go_version"`
	Platform    string `json:"platform"`
	Commit      string `json:"commit"`
	GeneratedAt string `json:"generated_at"`
	Runs        int    `json:"runs_per_scenario"`
	SeedPolicy  string `json:"seed_policy"`
}

// Artifact is the BENCH_scenarios.json schema.
type Artifact struct {
	Harness    string     `json:"harness"`
	Provenance Provenance `json:"provenance"`
	Scenarios  []Result   `json:"scenarios"`
	Pass       bool       `json:"pass"`
}

// WriteFile writes the artifact as indented JSON.
func (a *Artifact) WriteFile(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitCommit best-efforts the current commit for provenance: CI env first,
// then the local git tree, else "unknown".
func gitCommit() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// RunAll executes every registered scenario whose name matches filter
// (empty = all) and assembles the artifact. Scenario failures are recorded
// in the results, not returned as errors; err is reserved for harness
// breakage (stack would not build, no scenario matched).
func (r *Runner) RunAll(filter string) (*Artifact, error) {
	art := &Artifact{
		Harness: "go test ./internal/scenario -run TestScenarioLab -scenario.lab",
		Provenance: Provenance{
			GoVersion:   runtime.Version(),
			Platform:    runtime.GOOS + "/" + runtime.GOARCH,
			Commit:      gitCommit(),
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			Runs:        r.runs(),
			SeedPolicy:  "per-scenario fixed seed; run k derives device/fault seeds from seed*1000+k",
		},
		Pass: true,
	}
	for _, spec := range All() {
		if filter != "" && spec.Name != filter {
			continue
		}
		res, err := r.RunSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		art.Scenarios = append(art.Scenarios, *res)
		if !res.Pass {
			art.Pass = false
		}
	}
	if len(art.Scenarios) == 0 {
		return nil, fmt.Errorf("scenario: no scenario matches %q", filter)
	}
	return art, nil
}

// RunSpec executes one scenario r.Runs times and aggregates the reruns
// into a gated Result.
func (r *Runner) RunSpec(spec Spec) (*Result, error) {
	spec.fill()
	runs := r.runs()
	res := &Result{Name: spec.Name, Description: spec.Description, Seed: spec.Seed, Runs: runs}
	perRun := make([]map[Phase]phaseStats, 0, runs)
	var worst *worstJob
	for k := 0; k < runs; k++ {
		r.logf("scenario %s: run %d/%d", spec.Name, k+1, runs)
		out, err := r.runOnce(spec, k)
		if err != nil {
			return nil, err
		}
		if out.checkFail != "" {
			res.CheckFailures = append(res.CheckFailures, fmt.Sprintf("run %d: %s", k+1, out.checkFail))
		}
		perRun = append(perRun, out.stats)
		res.IllegalTransitions += out.illegal
		if out.e2eP95 > res.DeviceE2EP95Ms {
			res.DeviceE2EP95Ms = out.e2eP95
		}
		if w := out.worst; w != nil && (worst == nil || w.latMs > worst.latMs) {
			worst = w
		}
	}

	collect := func(ph Phase, f func(phaseStats) float64) []float64 {
		out := make([]float64, 0, len(perRun))
		for _, st := range perRun {
			out = append(out, f(st[ph]))
		}
		return out
	}
	maxInt := func(ph Phase, f func(phaseStats) int) int {
		max := 0
		for _, st := range perRun {
			if v := f(st[ph]); v > max {
				max = v
			}
		}
		return max
	}

	for _, ph := range Phases {
		res.Phases = append(res.Phases, PhaseSummary{
			Phase:            ph,
			Jobs:             spec.Load.Jobs,
			MedianJobsPerSec: telemetry.Median(collect(ph, func(s phaseStats) float64 { return s.jobsPerSec })),
			MedianP50Ms:      telemetry.Median(collect(ph, func(s phaseStats) float64 { return s.p50Ms })),
			MedianP95Ms:      telemetry.Median(collect(ph, func(s phaseStats) float64 { return s.p95Ms })),
			P95BoundMs:       spec.SLO.P95Ms[ph],
			MaxErrors:        maxInt(ph, func(s phaseStats) int { return s.errors }),
			MaxLost:          maxInt(ph, func(s phaseStats) int { return s.lost + s.chaffLost }),
			MaxWatchMisses:   maxInt(ph, func(s phaseStats) int { return s.watchMisses }),
			ChaffJobs:        maxInt(ph, func(s phaseStats) int { return s.chaffJobs }),
		})
	}

	ratios := make([]float64, 0, len(perRun))
	for _, st := range perRun {
		if w := st[Warmup].jobsPerSec; w > 0 {
			ratios = append(ratios, st[Recovery].jobsPerSec/w)
		}
	}
	res.RecoveryRatio = telemetry.Median(ratios)
	res.WarmupSpreadPct = telemetry.SpreadPct(collect(Warmup, func(s phaseStats) float64 { return s.jobsPerSec }))

	res.Gates = evaluateGates(spec, res)
	res.Pass = true
	for _, g := range res.Gates {
		if !g.Pass {
			res.Pass = false
		}
	}
	status := "PASS"
	if !res.Pass {
		status = "FAIL"
		// A failed gate ships its first diagnostic with it: the slowest
		// job's span waterfall, captured before the run's stack went away.
		if worst != nil {
			res.WorstJobID = worst.id
			res.WorstJobLatMs = worst.latMs
			res.WorstJobTrace = worst.trace
			r.logf("scenario %s: worst job %s took %.1f ms; trace: %s",
				spec.Name, worst.id, worst.latMs, worst.trace)
		}
	}
	r.logf("scenario %s: %s (recovery %.2fx, warmup spread %.1f%%)", spec.Name, status, res.RecoveryRatio, res.WarmupSpreadPct)
	return res, nil
}

// evaluateGates applies the SLO contract to the aggregated result.
func evaluateGates(spec Spec, res *Result) []Gate {
	var gates []Gate
	add := func(name string, pass bool, detail string, args ...interface{}) {
		gates = append(gates, Gate{Name: name, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
	}

	p95OK, p95Detail := true, make([]string, 0, 3)
	errOK, errDetail := true, make([]string, 0, 3)
	lostTotal, missTotal := 0, 0
	for _, ph := range res.Phases {
		if ph.MedianP95Ms > ph.P95BoundMs {
			p95OK = false
		}
		p95Detail = append(p95Detail, fmt.Sprintf("%s %.1f/%.0fms", ph.Phase, ph.MedianP95Ms, ph.P95BoundMs))
		rate := 0.0
		if ph.Jobs > 0 {
			rate = float64(ph.MaxErrors) / float64(ph.Jobs)
		}
		if rate > spec.SLO.MaxErrorRate {
			errOK = false
		}
		errDetail = append(errDetail, fmt.Sprintf("%s %d/%d", ph.Phase, ph.MaxErrors, ph.Jobs))
		lostTotal += ph.MaxLost
		missTotal += ph.MaxWatchMisses
	}
	add("p95-latency", p95OK, "median p95 vs bound: %s", strings.Join(p95Detail, ", "))
	add("error-rate", errOK, "worst-run failures (bound %.0f%%): %s", spec.SLO.MaxErrorRate*100, strings.Join(errDetail, ", "))
	add("zero-lost", lostTotal == 0, "%d submitted IDs never reached a terminal state (chaff included)", lostTotal)
	add("watch-terminal", missTotal == 0, "%d jobs reached a terminal state their watch stream never delivered", missTotal)
	add("recovery-throughput", res.RecoveryRatio >= spec.SLO.MinRecoveryRatio,
		"median recovery/warmup throughput %.2f (floor %.2f)", res.RecoveryRatio, spec.SLO.MinRecoveryRatio)
	add("variance", res.WarmupSpreadPct <= spec.SLO.MaxSpreadPct,
		"warmup throughput spread %.1f%% across %d runs (ceiling %.0f%%)", res.WarmupSpreadPct, res.Runs, spec.SLO.MaxSpreadPct)
	add("legal-transitions", res.IllegalTransitions == 0,
		"%d job transitions outside the lifecycle table across %d runs", res.IllegalTransitions, res.Runs)
	if spec.Hooks.Check != nil {
		if len(res.CheckFailures) == 0 {
			add("scenario-check", true, "scenario invariant held on all %d runs", res.Runs)
		} else {
			add("scenario-check", false, "%s", strings.Join(res.CheckFailures, "; "))
		}
	}
	return gates
}

// worstJob is one run's slowest measured job with its span tree, captured
// before the run's stack is torn down (traces die with the Env).
type worstJob struct {
	id    string
	latMs float64
	trace json.RawMessage
}

// runOutcome is what one seeded run hands the aggregator.
type runOutcome struct {
	stats     map[Phase]phaseStats
	e2eP95    float64   // worst device-side e2e p95
	worst     *worstJob // slowest job's trace; nil when it could not be fetched
	checkFail string    // the Check hook's failure; "" when it held or the scenario has none
	illegal   uint64    // Env.close's count, read after teardown
}

// runOnce executes all three phases of one seeded run.
func (r *Runner) runOnce(spec Spec, run int) (runOutcome, error) {
	env, err := newEnv(spec, run)
	if err != nil {
		return runOutcome{}, err
	}

	stats := make(map[Phase]phaseStats, 3)
	stats[Warmup] = r.runPhase(env, Warmup, nil)

	fault := func() {
		if spec.Hooks.Fault != nil {
			spec.Hooks.Fault(env)
		}
		if !r.SkipReact && spec.Hooks.React != nil {
			spec.Hooks.React(env)
		}
	}
	inject := r.runPhase(env, Inject, fault)
	env.endInject()
	inject.chaffLost = env.settleChaff(phaseTimeout)
	inject.chaffJobs = len(env.chaffIDs())
	stats[Inject] = inject

	if spec.Hooks.Recover != nil {
		spec.Hooks.Recover(env)
	}
	stats[Recovery] = r.runPhase(env, Recovery, nil)

	// Server-side tail latency: the deepest per-device dispatch pipeline
	// view, via the shared histogram p95 helper.
	e2eP95 := 0.0
	for _, dm := range env.Fleet.Metrics().Devices {
		if p := dm.QRM.E2EMs.P95(); p > e2eP95 {
			e2eP95 = p
		}
	}
	checkFail := ""
	if spec.Hooks.Check != nil {
		if cerr := spec.Hooks.Check(env); cerr != nil {
			checkFail = cerr.Error()
		}
	}
	worst := fetchWorstTrace(env, stats)
	// Teardown settles the stragglers, so the count is read after it.
	illegal := env.close()
	return runOutcome{stats, e2eP95, worst, checkFail, illegal}, nil
}

// fetchWorstTrace pulls the span tree of the run's slowest measured job
// while the stack is still alive. Best-effort: the job may have been
// evicted from the trace retention ring under heavy chaff.
func fetchWorstTrace(env *Env, stats map[Phase]phaseStats) *worstJob {
	w := worstJob{}
	for _, st := range stats {
		if st.worstLatMs > w.latMs {
			w.latMs, w.id = st.worstLatMs, st.worstJobID
		}
	}
	if w.id == "" {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	jt, err := env.Client.V2JobTrace(ctx, w.id)
	if err != nil {
		return nil
	}
	data, err := json.Marshal(jt)
	if err != nil {
		return nil
	}
	w.trace = data
	return &w
}

// outcome is one measured job's fate.
type outcome struct {
	id      string
	latMs   float64
	failed  bool
	lost    bool
	watchOK bool
}

// runPhase submits the phase's measured load through the v2 API, watching
// every job to its terminal state. midFault, when set, fires after half the
// load is submitted — the incident lands with a backlog in flight.
func (r *Runner) runPhase(env *Env, ph Phase, midFault func()) phaseStats {
	spec := env.Spec
	jobs := spec.Load.Jobs
	results := make(chan outcome, jobs)
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	start := time.Now()
	for i := 0; i < jobs; i++ {
		if midFault != nil && i == jobs/2 {
			midFault()
		}
		width := spec.Load.Widths[i%len(spec.Load.Widths)]
		user := spec.Load.User
		if spec.Load.Tenants > 0 {
			user = fmt.Sprintf("%s-%d", user, i%spec.Load.Tenants)
		}
		h, err := env.Client.Submit(ctx, mqss.SubmitRequest{
			Circuit: circuit.GHZ(width), Shots: spec.Load.Shots, User: user,
		}, "")
		if err != nil {
			// A rejected submission is a lost unit of offered load: loud
			// failure via the zero-lost gate.
			results <- outcome{lost: true}
			continue
		}
		env.noteMeasured(h.ID)
		submitted := time.Now()
		wg.Add(1)
		go func(h *mqss.JobHandle) {
			defer wg.Done()
			o := watchToTerminal(ctx, h, submitted)
			o.id = h.ID
			results <- o
		}(h)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(results)

	st := phaseStats{jobs: jobs}
	lat := make([]float64, 0, jobs)
	for o := range results {
		switch {
		case o.lost:
			st.lost++
		default:
			lat = append(lat, o.latMs)
			if o.latMs > st.worstLatMs {
				st.worstLatMs, st.worstJobID = o.latMs, o.id
			}
			if o.failed {
				st.errors++
			}
			if !o.watchOK {
				st.watchMisses++
			}
		}
	}
	if elapsed > 0 {
		st.jobsPerSec = float64(jobs) / elapsed.Seconds()
	}
	st.p50Ms = telemetry.SampleQuantile(lat, 0.50)
	st.p95Ms = telemetry.SampleQuantile(lat, 0.95)
	return st
}

// watchToTerminal rides the watch stream to the job's terminal event,
// re-attaching by job ID when a stream is severed short of terminal (server
// restart, dropped connection) — the v2 contract is that a fresh watch
// opens with a snapshot/recovered event, so a re-attached stream can still
// deliver the terminal state. Within the phase budget: a job confirmed
// terminal only by polling is a watch-terminal SLO violation; a job never
// confirmed terminal at all is a zero-lost violation.
func watchToTerminal(ctx context.Context, h *mqss.JobHandle, submitted time.Time) outcome {
	terminal := func(j *mqss.Job, viaWatch bool) outcome {
		return outcome{
			latMs:   float64(time.Since(submitted).Microseconds()) / 1000,
			failed:  j.State != mqss.StateDone,
			watchOK: viaWatch,
		}
	}
	for {
		j, err := h.Watch(ctx, nil)
		if err == nil && j != nil && j.State.Terminal() {
			return terminal(j, true)
		}
		if ctx.Err() != nil {
			// Phase budget exhausted: one unbudgeted poll classifies the miss.
			pollCtx, pollCancel := context.WithTimeout(context.Background(), time.Second)
			pj, perr := h.Poll(pollCtx)
			pollCancel()
			if perr == nil && pj.State.Terminal() {
				return terminal(pj, false)
			}
			return outcome{lost: true}
		}
		time.Sleep(5 * time.Millisecond)
	}
}
