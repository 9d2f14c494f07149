package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/durable"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/mqss"
	"repro/internal/qdmi"
	"repro/internal/tenant"
)

// Env is the live stack one scenario run executes against: a fleet of twin
// QPUs behind the scheduler, fronted by the MQSS v2 REST API on a real
// loopback listener, driven through the remote client so watch streams,
// idempotency and cancellation take the same wire path production clients
// do. Hooks receive the Env to reach any layer.
type Env struct {
	Spec   Spec
	Fleet  *fleet.Scheduler
	QPUs   map[string]*device.QPU
	Names  []string
	Client *mqss.Client
	// Rand is the scenario's deterministic source for fault placement and
	// chaff shaping. Wall-clock timing still varies run to run — that is
	// what the variance gate measures.
	Rand *rand.Rand

	// Store is the crash-durable job store, present after EnableDurability;
	// the Crash hook abandons it (simulated kill -9) and replays it into the
	// rebuilt stack.
	Store *durable.Store

	// Peers are the extra federation members, present after
	// EnableFederation; the main stack is member "node-0".
	Peers []*FedPeer

	fed     *federation.Node
	srv     *mqss.Server
	hs      *httptest.Server
	dataDir string

	mu         sync.Mutex
	recent     []string // measured v2 job IDs, for churn targets
	chaff      []string // fault-generated v2 job IDs (exempt from SLOs, not from zero-lost)
	injectDone chan struct{}
	bg         sync.WaitGroup

	// illegal sums IllegalTransitions over every scheduler stopFleet stopped.
	illegal uint64
}

// stopFleet stops a scheduler the run is done with and banks its count of
// transitions outside the lifecycle table for the runner's gate.
func (e *Env) stopFleet(f *fleet.Scheduler) {
	f.Stop()
	e.illegal += f.Metrics().IllegalTransitions
}

// DeviceName returns the i-th device name ("dev-0"...), a stable handle for
// fault hooks.
func (e *Env) DeviceName(i int) string { return e.Names[i%len(e.Names)] }

// QPU returns the raw simulator behind the i-th device, the layer fault
// injection and pacing hooks act on.
func (e *Env) QPU(i int) *device.QPU { return e.QPUs[e.DeviceName(i)] }

// InjectDone is closed when the inject phase's measured load has fully
// settled; background churn spawned by a Fault hook should stop then.
func (e *Env) InjectDone() <-chan struct{} { return e.injectDone }

// Go runs fn on a background goroutine the runner joins before the
// recovery phase is measured.
func (e *Env) Go(fn func()) {
	e.bg.Add(1)
	go func() {
		defer e.bg.Done()
		fn()
	}()
}

// SubmitChaff submits a fault-generated job through the v2 API and records
// its ID: chaff is exempt from the latency/error SLOs (a deadline storm is
// *supposed* to expire), but the zero-lost gate still requires every chaff
// ID to reach a terminal state.
func (e *Env) SubmitChaff(ctx context.Context, req mqss.SubmitRequest) (string, error) {
	h, err := e.Client.Submit(ctx, req, "")
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.chaff = append(e.chaff, h.ID)
	e.mu.Unlock()
	return h.ID, nil
}

// RecentJobID returns a random measured job ID submitted so far ("" when
// none yet) — churn hooks watch and abandon these.
func (e *Env) RecentJobID() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.recent) == 0 {
		return ""
	}
	return e.recent[e.Rand.Intn(len(e.recent))]
}

func (e *Env) noteMeasured(id string) {
	e.mu.Lock()
	e.recent = append(e.recent, id)
	e.mu.Unlock()
}

func (e *Env) chaffIDs() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.chaff...)
}

// newEnv builds the stack for one run of spec. Device seeds derive from the
// scenario seed plus the run index so reruns are independent but seeded.
func newEnv(spec Spec, run int) (*Env, error) {
	e := &Env{
		Spec:       spec,
		Rand:       rand.New(rand.NewSource(spec.Seed*1000 + int64(run))),
		injectDone: make(chan struct{}),
	}
	if err := e.buildFleet(); err != nil {
		return nil, err
	}
	e.srv = mqss.NewFleetServer(e.Fleet)
	e.applyAdmission()
	e.hs = httptest.NewServer(e.srv)
	httpc := e.hs.Client()
	// Every measured job holds a watch stream open; without headroom the
	// transport would churn connections under the phase fan-out.
	if tr, ok := httpc.Transport.(*http.Transport); ok {
		tr.MaxIdleConnsPerHost = 4 * spec.Load.Jobs
	}
	e.Client = mqss.NewRemoteClient(e.hs.URL, httpc)
	if spec.Hooks.Setup != nil {
		spec.Hooks.Setup(e)
	}
	return e, nil
}

// buildFleet constructs the scheduler and its devices from the spec's
// deterministic seeds. Crash reruns it so the reborn stack matches the one
// that died device for device.
func (e *Env) buildFleet() error {
	spec := e.Spec
	e.Fleet = fleet.New(spec.Fleet.Policy, nil)
	e.QPUs = make(map[string]*device.QPU, spec.Fleet.Devices)
	e.Names = nil
	for i := 0; i < spec.Fleet.Devices; i++ {
		name := fmt.Sprintf("dev-%d", i)
		qpu, err := device.New(device.Config{
			Name: name, Rows: spec.Fleet.Rows, Cols: spec.Fleet.Cols,
			Seed: spec.Seed + int64(i), DigitalTwin: true,
		})
		if err != nil {
			e.Fleet.Stop()
			return fmt.Errorf("scenario: building %s: %w", name, err)
		}
		qpu.SetExecLatency(spec.Fleet.ExecLatency)
		if err := e.Fleet.AddDevice(name, qdmi.NewDevice(qpu, nil), spec.Fleet.Workers); err != nil {
			e.Fleet.Stop()
			return fmt.Errorf("scenario: adding %s: %w", name, err)
		}
		e.QPUs[name] = qpu
		e.Names = append(e.Names, name)
	}
	return nil
}

// applyAdmission pushes the spec's admission profile into the freshly built
// stack: the token bucket onto the v2 front end, the shedding bounds onto
// every device queue. Crash calls it again on the reborn stack — admission
// config is server config and must survive a restart.
func (e *Env) applyAdmission() {
	a := e.Spec.Admission
	if a.Rate > 0 {
		e.srv.SetTenantLimits(a.Rate, a.Burst)
	}
	if adm := (tenant.Admission{MaxTenantQueue: a.MaxTenantQueue, HighWater: a.HighWater}); adm.Enabled() {
		e.Fleet.SetAdmission(adm)
	}
}

// EnableDurability backs this run's stack with a crash-durable job store in
// a throwaway directory (group-commit fsync, the qhpcd default). Call from
// a Setup hook; Crash then has a WAL to replay.
func (e *Env) EnableDurability() error {
	dir, err := os.MkdirTemp("", "scenario-wal-*")
	if err != nil {
		return fmt.Errorf("scenario: wal dir: %w", err)
	}
	st, _, err := durable.Open(dir, durable.Options{Sync: durable.SyncGroup})
	if err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("scenario: opening store: %w", err)
	}
	e.dataDir = dir
	e.Store = st
	e.Fleet.AttachStore(st)
	e.srv.AttachStore(st)
	return nil
}

// Crash is the kill -9 fault: it abandons the store mid-flight (unflushed
// group-commit buffer lost, no final fsync — exactly what SIGKILL leaves on
// disk), tears the whole stack down, then boots a fresh one from the same
// data directory on the same port. Every job the WAL acked must come back:
// terminal ones with results, in-flight ones re-queued under their original
// IDs. Clients keep their handles — the address survives the reboot.
func (e *Env) Crash() error {
	if e.Store == nil {
		return fmt.Errorf("scenario: Crash needs EnableDurability in the Setup hook")
	}
	addr := e.hs.Listener.Addr().String()

	// The kill: from here on nothing the dying process does reaches disk.
	e.Store.Abandon()
	e.srv.Close() // release v2 watch streams so the listener can drain
	e.hs.Close()
	e.stopFleet(e.Fleet)

	// The reboot: replay snapshot + WAL, rebuild the identical fleet, hand
	// it the recovered jobs, and come back up on the same address.
	st, rec, err := durable.Open(e.dataDir, durable.Options{Sync: durable.SyncGroup})
	if err != nil {
		return fmt.Errorf("scenario: reopening store: %w", err)
	}
	if err := e.buildFleet(); err != nil {
		return err
	}
	e.Fleet.AttachStore(st)
	if _, err := e.Fleet.Restore(rec.FleetJobs); err != nil {
		return fmt.Errorf("scenario: restoring jobs: %w", err)
	}
	e.Store = st
	e.srv = mqss.NewFleetServer(e.Fleet)
	e.srv.AttachStore(st)
	e.applyAdmission()

	var l net.Listener
	for attempt := 0; ; attempt++ {
		l, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if attempt >= 50 {
			return fmt.Errorf("scenario: rebinding %s: %w", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	e.hs = &httptest.Server{Listener: l, Config: &http.Server{Handler: e.srv}}
	e.hs.Start()
	return nil
}

// close tears the run's stack down: background churn first, then the HTTP
// front end, then the scheduler (failing any stragglers still queued).
func (e *Env) close() {
	select {
	case <-e.injectDone:
	default:
		close(e.injectDone)
	}
	e.bg.Wait()
	e.closePeers()
	e.srv.Close()
	e.hs.Close()
	e.stopFleet(e.Fleet)
	if e.Store != nil {
		e.Store.Close()
	}
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

// endInject marks the inject phase settled and joins background churn.
func (e *Env) endInject() {
	select {
	case <-e.injectDone:
	default:
		close(e.injectDone)
	}
	e.bg.Wait()
}

// settleChaff waits (bounded) for every chaff job to reach a terminal
// state and returns how many never did — input to the zero-lost gate.
func (e *Env) settleChaff(timeout time.Duration) (lost int) {
	ids := e.chaffIDs()
	if len(ids) == 0 {
		return 0
	}
	deadline := time.Now().Add(timeout)
	for _, id := range ids {
		h, err := e.Client.Handle(id)
		if err != nil {
			lost++
			continue
		}
		settled := false
		for time.Now().Before(deadline) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			j, err := h.Poll(ctx)
			cancel()
			if err == nil && j.State.Terminal() {
				settled = true
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !settled {
			lost++
		}
	}
	return lost
}
