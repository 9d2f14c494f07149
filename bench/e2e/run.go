package e2e

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Run-validity classes (the basecamp policy in SNIPPETS.md): only VALID runs
// are reported; the others are printed, excluded and rerun.
const (
	ClassValid      = "VALID"
	ClassInfraFlake = "INFRA_FLAKE" // the box or the daemon process, not the code under test
	ClassHarnessBug = "HARNESS_BUG" // the harness could not do its own job
)

// MaxStallShare is the share of the timed wall the sentinel ticker may find
// stalled before the run is an INFRA_FLAKE. On the shared 2-vCPU reference
// box a run loses 1-6 % of its wall to gaps over 5 ms, 12 % in the worst
// seen; a rerun costs as much as a run, so only a box that is plainly
// unusable is excluded.
const MaxStallShare = 0.20

// MaxDilation is how far the hypervisor may stretch the median window of a
// run (see Dilation) before the run is an INFRA_FLAKE: past it not even the
// quiet half of the windows is quiet. Calm runs on the reference box
// read 1.01-1.12, the ones whose tail latency doubled 1.3-1.6.
const MaxDilation = 1.2

// MinTailJobs is how many jobs the median window must hold for a window's
// own 95th percentile to mean something (five samples beyond it).
const MinTailJobs = 100

// Restarts is how many kill -9 / restart cycles end a traced durable run,
// whose durable.restart_ready_s is their median. An untraced run, which
// reports no restart timing, crashes once: enough to prove nothing was lost.
const Restarts = 3

// Config is one run of one workload.
type Config struct {
	Root      string // repository root: where ./cmd/qhpcd builds and .bench_build lives
	OutDir    string // bench/out: daemon logs, trace files
	Workload  *Workload
	Seed      int64
	Seconds   int
	Traced    bool
	SetupReps int // set-ups per run; setup_s is their median
}

// Result is one run.
type Result struct {
	Class, Reason string
	Attempted     int
	Failed        int
	Correct       bool
	Notes         []string
	Metrics       map[string]float64
	Samples       map[string]int // sample count behind each percentile metric
	Load          *LoadResult    // the timed part, for the trace file
}

type runner struct {
	cfg     *Config
	bin     string
	flags   []string // as the daemon was started, less -addr
	dataDir string
	logPath string
	qubits  map[string]int
	setups  int
}

// Run sets up (SetupReps times), measures for Seconds, verifies, and on
// durable workloads crashes and restarts the daemon. Every process it starts
// has ended when it returns.
func Run(ctx context.Context, cfg *Config) (*Result, error) {
	r := &runner{cfg: cfg, logPath: filepath.Join(cfg.OutDir, "qhpcd-"+cfg.Workload.Name+".log")}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	_ = os.Remove(r.logPath) // one run per log
	res := &Result{Metrics: map[string]float64{}, Samples: map[string]int{}}
	var setupS []float64
	var d *Daemon
	for i := 0; i < cfg.SetupReps; i++ {
		if d != nil {
			d.Kill()
			r.removeData()
		}
		t0, box0 := time.Now(), boxTicks()
		var err error
		if d, err = r.setUp(ctx); err != nil {
			r.removeData()
			return nil, err
		}
		// On the same steal-free clock as the throughput.
		setupS = append(setupS, time.Since(t0).Seconds()/Dilation(box0, boxTicks()))
	}
	defer func() {
		d.Kill()
		r.removeData()
	}()
	res.Metrics["setup_s"] = Median(setupS)

	w := cfg.Workload
	count := 8192 // repeated circuits: the order cycles
	if w.Circuits == CircuitsAnsatz {
		count = w.InputsPerSec * cfg.Seconds
	}
	inputs := Generate(w, cfg.Seed, count)

	before, _, err := scrape(d.URL)
	if err != nil {
		return r.harnessBug(res, "scraping /metrics before the timed part: %v", err), nil
	}
	epoch := time.Now()
	sentinel := StartSentinel()
	sampler := startWindowSampler(d, epoch)
	load := RunLoad(ctx, &LoadConfig{
		Workload: w, URL: d.URL, Inputs: inputs, Epoch: epoch,
		Deadline: time.Duration(cfg.Seconds) * time.Second,
		Traced:   cfg.Traced, DeviceQubits: r.qubits,
	})
	edges, err := sampler.Stop()
	stalled := sentinel.Stop()
	res.Load = load
	if died, how := d.DiedOnItsOwn(); died {
		res.Class, res.Reason = ClassInfraFlake, "the daemon ended during the timed part without the harness killing it: "+how
		return res, nil
	}
	if err != nil {
		return r.harnessBug(res, "reading /proc: %v", err), nil
	}
	wins := windows(load, edges)
	if len(wins) == 0 {
		return r.harnessBug(res, "no job completed inside a window of the timed part"), nil
	}
	after, scrapeDur, err := scrape(d.URL)
	if err != nil {
		return r.harnessBug(res, "scraping /metrics after the timed part: %v", err), nil
	}

	res.Attempted, res.Failed = load.Attempted, load.Failed
	res.Notes = append(res.Notes, load.Failures...)
	if load.Exhausted {
		res.Notes = append(res.Notes, fmt.Sprintf("the %d generated inputs ran out before %d s: raise InputsPerSec", count, cfg.Seconds))
	}
	r.endToEnd(res, load, edges, wins)
	r.clientLayer(res, load, stalled)
	r.scrapedLayers(res, before, after, scrapeDur)

	stat, verr := load.Tally.Verdict(w)
	res.Metrics["check.distribution_stat"] = stat
	if errors.Is(verr, ErrHarness) {
		return r.harnessBug(res, "%v", verr), nil
	}
	if verr != nil {
		res.Notes = append(res.Notes, verr.Error())
	}
	res.Correct = res.Failed == 0 && verr == nil && res.Attempted > 0

	if w.Durable {
		if d, err = r.crashAndRestart(ctx, d, load, res); err != nil {
			return r.harnessBug(res, "%v", err), nil
		}
	}

	// A run the box disturbed is complete but not VALID: the caller makes it
	// again, and only reports it, flagged, when it has no rerun left.
	res.Class = ClassValid
	if share := stalled.Seconds() / load.Wall.Seconds(); share > MaxStallShare {
		res.Class = ClassInfraFlake
		res.Reason = fmt.Sprintf("the sentinel ticker found %.1f %% of the timed wall stalled (limit %.0f %%)", 100*share, 100*MaxStallShare)
	}
	if f := res.Metrics["client.box_dilation_p50"]; f > MaxDilation {
		res.Class = ClassInfraFlake
		res.Reason = fmt.Sprintf("the hypervisor stretched the median window by %.2fx (limit %.2fx)", f, MaxDilation)
	}
	return res, nil
}

// boxTicks is ReadBoxTicks for set-up, where an unreadable /proc/stat only
// means no steal is taken out (two zero readings dilate by 1).
func boxTicks() BoxTicks {
	t, _ := ReadBoxTicks()
	return t
}

func (r *runner) harnessBug(res *Result, format string, args ...interface{}) *Result {
	res.Class, res.Reason = ClassHarnessBug, fmt.Sprintf(format, args...)
	return res
}

func (r *runner) removeData() {
	if r.dataDir != "" {
		_ = os.RemoveAll(r.dataDir) // scratch under .bench_build; a leftover is harmless
		r.dataDir = ""
	}
}

// setUp is what setup_s times: build the daemon from source, start it until
// /healthz answers, and send the untimed warm-up so caches, pools and the
// heap are past their first-use costs.
func (r *runner) setUp(ctx context.Context) (*Daemon, error) {
	cfg, w := r.cfg, r.cfg.Workload
	bin, err := Build(ctx, cfg.Root, cfg.Root, "./cmd/qhpcd", "qhpcd")
	if err != nil {
		return nil, err
	}
	r.bin = bin
	flags := append([]string(nil), DaemonFlags...)
	if w.Durable {
		r.setups++
		r.dataDir = filepath.Join(cfg.Root, ".bench_build", "data", fmt.Sprintf("%s-%d-%d", w.Name, os.Getpid(), r.setups))
		if err := os.MkdirAll(r.dataDir, 0o755); err != nil {
			return nil, err
		}
		fs, err := FSType(r.dataDir)
		if err != nil {
			return nil, err
		}
		if fs == "tmpfs" || fs == "ramfs" {
			return nil, fmt.Errorf("%s is on %s: %s needs a filesystem whose fsync reaches a device", r.dataDir, fs, w.Name)
		}
		flags = append(append(flags, "-data-dir", r.dataDir), DurableFlags...)
	}
	r.flags = flags
	d, err := StartDaemon(ctx, bin, flags, r.logPath, "/healthz")
	if err != nil {
		return nil, err
	}
	if r.qubits, err = deviceQubits(d.URL); err != nil {
		d.Kill()
		return nil, err
	}
	warm := RunLoad(ctx, &LoadConfig{
		Workload: w, URL: d.URL, Inputs: Generate(w, ^cfg.Seed, w.Warmup),
		MaxJobs: w.Warmup, DeviceQubits: r.qubits,
	})
	if warm.Failed > 0 {
		d.Kill()
		return nil, fmt.Errorf("warm-up: %d of %d jobs failed: %v", warm.Failed, warm.Attempted, warm.Failures)
	}
	return d, nil
}

// deviceQubits reads the register width of every backend, which bounds the
// outcome keys of a job that ran there.
func deviceQubits(url string) (map[string]int, error) {
	body, err := get(url + "/api/v1/device")
	if err != nil {
		return nil, err
	}
	var devs map[string]struct {
		Properties struct {
			NumQubits int `json:"num_qubits"`
		} `json:"properties"`
	}
	if err := json.Unmarshal(body, &devs); err != nil {
		return nil, fmt.Errorf("decoding /api/v1/device: %w", err)
	}
	out := map[string]int{}
	for name, d := range devs {
		out[name] = d.Properties.NumQubits
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("/api/v1/device lists no backend")
	}
	return out, nil
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s answered %d: %.200s", url, resp.StatusCode, body)
	}
	return body, nil
}

func scrape(url string) (*Scrape, time.Duration, error) {
	t0 := time.Now()
	body, err := get(url + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	return ParseScrape(body), time.Since(t0), nil
}

// edge is one reading of the window sampler.
type edge struct {
	at  time.Duration // offset from the epoch
	cpu time.Duration // the daemon's CPU time so far
	rss float64       // the daemon's resident set, KiB
	box BoxTicks
}

// windowSampler reads the daemon's CPU time, its resident set and the box's
// steal counter once a second of the timed part, which cuts the part into the windows the
// end-to-end metrics are taken over.
type windowSampler struct {
	stop  chan struct{}
	done  chan struct{}
	edges []edge
	err   error
}

func startWindowSampler(d *Daemon, epoch time.Time) *windowSampler {
	s := &windowSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			e := edge{at: time.Since(epoch)}
			if e.cpu, s.err = d.CPUTime(); s.err != nil {
				return
			}
			if e.rss, s.err = d.RSSKB(); s.err != nil {
				return
			}
			if e.box, s.err = ReadBoxTicks(); s.err != nil {
				return
			}
			s.edges = append(s.edges, e)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends the sampler and returns its readings: the window edges.
func (s *windowSampler) Stop() ([]edge, error) {
	close(s.stop)
	<-s.done
	return s.edges, s.err
}

// windows cuts the timed part at the sampler's edges and drops the windows
// in which no job completed: they carry no reading.
func windows(load *LoadResult, edges []edge) []Window {
	bounds := make([]time.Duration, len(edges))
	for i, e := range edges {
		bounds[i] = e.at
	}
	var out []Window
	for i, win := range Windows(load.Samples, bounds) {
		if win.Jobs == 0 {
			continue
		}
		win.CPUMs = float64(edges[i+1].cpu-edges[i].cpu) / float64(time.Millisecond)
		win.Dilation = Dilation(edges[i].box, edges[i+1].box)
		out = append(out, win)
	}
	return out
}

// rssPerJob is the growth of the daemon's resident set per verified job over
// the timed part: the Theil-Sen slope through (jobs completed so far, RSS) at
// the window edges. The heap grows in steps, so the difference between two
// readings moves by a GC cycle's worth either way — a fifth of the whole
// growth on wide-circuit's two hundred jobs; the slope through sixteen does
// not.
func rssPerJob(load *LoadResult, edges []edge) float64 {
	ends := make([]time.Duration, 0, len(load.Samples))
	for _, s := range load.Samples {
		if s.OK {
			ends = append(ends, s.End)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	jobs, rss := make([]float64, len(edges)), make([]float64, len(edges))
	for i, e := range edges {
		jobs[i] = float64(sort.Search(len(ends), func(k int) bool { return ends[k] > e.at }))
		rss[i] = e.rss
	}
	slope, _ := TheilSen(jobs, rss, 1)
	return slope
}

// endToEnd fills the metrics a user or operator of the daemon would see.
// Throughput is taken per one-second window on the clock that stops while
// the hypervisor has the CPU (the window's rate times its dilation) and
// reported as the midmean over the windows; latency and CPU cost are read
// from the quietest windows, pooled.
func (r *runner) endToEnd(res *Result, load *LoadResult, edges []edge, wins []Window) {
	var rate, jobs, dilation, p95 []float64
	worst := 0.0
	for _, win := range wins {
		rate = append(rate, float64(win.Jobs)/win.Seconds*win.Dilation)
		jobs, dilation = append(jobs, float64(win.Jobs)), append(dilation, win.Dilation)
		p95 = append(p95, Percentile(win.LatMs, 95))
		worst = math.Max(worst, p95[len(p95)-1])
	}
	quiet := Quietest(wins)
	lat := Pool(quiet)
	cpuMs := 0.0
	for _, win := range quiet {
		cpuMs += win.CPUMs
	}
	m := res.Metrics
	m["jobs_per_s"] = Midmean(rate)
	m["job_ms_p50"] = Percentile(lat, 50)
	res.Samples["job_ms_p50"] = len(lat)
	// The tail is where the stolen milliseconds land, so it is extrapolated
	// to no steal from every window's own 95th percentile — where a window
	// holds enough jobs to have one; else from the quiet windows, pooled.
	if Median(jobs) >= MinTailJobs {
		m["job_ms_p95"] = AtNoSteal(dilation, p95)
		res.Samples["job_ms_p95"] = load.Attempted - load.Failed
	} else {
		m["job_ms_p95"] = Percentile(lat, 95)
		res.Samples["job_ms_p95"] = len(lat)
	}
	all := Latencies(load.Samples)
	m["server_cpu_ms_per_job"] = cpuMs / float64(len(lat))
	m["server_rss_kb_per_job"] = rssPerJob(load, edges)
	// The tail did not repeat well enough on a shared box to carry a bound.
	m["client.job_ms_p99"] = Percentile(all, 99)
	res.Samples["client.job_ms_p99"] = len(all)
	m["client.worst_window_p95_ms"] = worst
	m["client.box_dilation_p50"] = Median(dilation)
}

// clientLayer fills the client.* rows that need no ladder: source (b).
func (r *runner) clientLayer(res *Result, load *LoadResult, stalled time.Duration) {
	m := res.Metrics
	sort.Float64s(load.PostMs)
	m["client.post_ms_p50"] = Percentile(load.PostMs, 50)
	res.Samples["client.post_ms_p50"] = len(load.PostMs)
	m["client.watch_first_event_ms_p50"] = 0
	if len(load.FirstEvMs) > 0 {
		sort.Float64s(load.FirstEvMs)
		m["client.watch_first_event_ms_p50"] = Percentile(load.FirstEvMs, 50)
		res.Samples["client.watch_first_event_ms_p50"] = len(load.FirstEvMs)
	}
	m["client.stall_ms_total"] = float64(stalled) / float64(time.Millisecond)

	for span, row := range map[string]string{
		"route":      "fleet.route_span_us_p50",
		"queue-wait": "qrm.queue_wait_us_p50",
		"compile":    "qrm.compile_span_us_p50",
		"execute":    "qrm.execute_span_us_p50",
	} {
		us := load.ServerUs[span]
		sort.Float64s(us)
		if len(us) > 0 {
			m[row] = Percentile(us, 50)
			res.Samples[row] = len(us)
		}
	}
}

// scrapedLayers fills the rows read from GET /metrics: source (a). Counters
// are differences across the timed part, so the warm-up is not in them.
func (r *runner) scrapedLayers(res *Result, before, after *Scrape, scrapeDur time.Duration) {
	m := res.Metrics
	delta := func(name string, having ...string) float64 {
		return after.Sum(name, having...) - before.Sum(name, having...)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	jobs := delta("qhpc_fleet_jobs_completed_total")
	m["mqss.metrics_scrape_ms"] = float64(scrapeDur) / float64(time.Millisecond)
	m["mqss.metrics_bytes"] = float64(after.Bytes)
	m["mqss.events_per_job"] = ratio(delta("qhpc_bus_events_published_total"), jobs)
	m["fleet.primary_device_share"] = ratio(delta("qhpc_device_jobs_routed_total", `device="garnet-20"`), delta("qhpc_device_jobs_routed_total"))
	hits, misses := delta("qhpc_transpile_cache_hits_total"), delta("qhpc_transpile_cache_misses_total")
	m["qrm.transpile_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["qrm.shed_total"] = delta("qhpc_qrm_jobs_shed_total")
	m["qrm.expired_total"] = delta("qhpc_qrm_jobs_expired_total")
	m["qrm.bus_dropped_total"] = delta("qhpc_bus_events_dropped_total")
	hits, misses = delta("qhpc_engine_compile_hits_total"), delta("qhpc_engine_compile_misses_total")
	m["device.engine_compile_hit_ratio"] = ratio(hits, hits+misses)
	m["device.dist_cache_hit_ratio"] = ratio(delta("qhpc_engine_dist_cache_hits_total"), delta("qhpc_engine_fast_path_jobs_total"))
	tree := delta("qhpc_engine_branch_tree_jobs_total")
	m["device.branch_tree_share"] = ratio(tree, delta("qhpc_qrm_jobs_completed_total"))
	m["device.branch_leaves_per_shot"] = ratio(delta("qhpc_engine_branch_leaves_total"), tree*float64(r.cfg.Workload.Shots))
	// Zero on a storeless daemon, which exposes no qhpc_wal_* family.
	appends := delta("qhpc_wal_appends_total")
	m["durable.records_per_job"] = ratio(appends, jobs)
	m["durable.wal_bytes_per_job"] = ratio(delta("qhpc_wal_bytes_written_total"), jobs)
	m["durable.records_per_fsync"] = ratio(appends, delta("qhpc_wal_fsyncs_total"))
	m["durable.replay_us_per_record"] = 0
	m["durable.restart_ready_s"] = 0
}

// crashAndRestart is the operator's half of the durable workload: kill -9,
// restart on the same directory, time exec -> first 200 on GET of the last
// acknowledged job, and prove every sampled acknowledged job came back done
// with the counts it was acknowledged with.
func (r *runner) crashAndRestart(ctx context.Context, d *Daemon, load *LoadResult, res *Result) (*Daemon, error) {
	if load.LastAcked.ID == "" {
		return d, fmt.Errorf("no job was acknowledged, nothing to recover")
	}
	var ready, perRecord []float64
	cycles := 1
	if r.cfg.Traced {
		cycles = Restarts
	}
	for k := 0; k < cycles; k++ {
		d.Kill()
		t0 := time.Now()
		nd, err := StartDaemon(ctx, r.bin, r.flags, r.logPath, "/api/v2/jobs/"+load.LastAcked.ID)
		if err != nil {
			return d, fmt.Errorf("restart %d: %w", k+1, err)
		}
		d = nd
		ready = append(ready, time.Since(t0).Seconds())

		lost := 0
		for _, a := range load.Acked {
			body, err := get(d.URL + "/api/v2/jobs/" + a.ID)
			var rec Record
			if err != nil || json.Unmarshal(body, &rec) != nil || rec.State != "done" || CountsDigest(rec.Counts) != a.Digest {
				lost++
				if len(res.Notes) < 2*maxFailureNotes {
					res.Notes = append(res.Notes, fmt.Sprintf("restart %d: acknowledged job %s did not come back done with its counts (err=%v state=%q)", k+1, a.ID, err, rec.State))
				}
			}
		}
		if lost > 0 {
			res.Failed += lost
			res.Correct = false
		}

		body, err := get(d.URL + "/api/v2/admin/store")
		var st struct {
			Replay struct {
				Records    float64 `json:"records"`
				DurationMs float64 `json:"duration_ms"`
			} `json:"replay"`
		}
		if err == nil && json.Unmarshal(body, &st) == nil && st.Replay.Records > 0 {
			perRecord = append(perRecord, 1000*st.Replay.DurationMs/st.Replay.Records)
		}
	}
	res.Metrics["durable.restart_ready_s"] = Median(ready)
	if len(perRecord) > 0 {
		res.Metrics["durable.replay_us_per_record"] = Median(perRecord)
	}
	return d, nil
}

// TraceFile is what a traced run leaves in bench/out/trace-<workload>.json.
type TraceFile struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Provenance interface{} `json:"provenance"`
	Spans      []Span      `json:"spans"`
}

// WriteJSON writes v, indented, to path.
func WriteJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
