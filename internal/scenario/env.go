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

// Env is the live stack one scenario run executes against. Its embedded
// Node is member "node-0": a fleet of twin QPUs behind the scheduler,
// fronted by the MQSS v2 REST API on a real loopback listener, driven
// through the remote client so watch streams, idempotency and cancellation
// take the same wire path production clients do. Hooks receive the Env to
// reach any layer.
type Env struct {
	*Node
	// Rand is the scenario's deterministic source for fault placement and
	// chaff shaping. Wall-clock timing still varies run to run — that is
	// what the variance gate measures.
	Rand *rand.Rand

	// Peers are the extra federation members "node-1".., present after
	// EnableFederation.
	Peers []*Node

	mu         sync.Mutex
	recent     []string // measured v2 job IDs, for churn targets
	chaff      []string // fault-generated v2 job IDs (exempt from SLOs, not from zero-lost)
	injectDone chan struct{}
	bg         sync.WaitGroup
}

// Node is one full qhpcd member of the lab: twin devices, fleet, v2 server
// with the spec's admission profile on a live listener, and, once enabled,
// a crash-durable store and a federation membership. The first start and
// every reboot run the same boot.
type Node struct {
	Name   string // federation member name
	Spec   Spec
	Fleet  *fleet.Scheduler
	QPUs   map[string]*device.QPU
	Names  []string // device names, registration order
	Client *mqss.Client

	idx     int
	srv     *mqss.Server
	hs      *httptest.Server
	store   *durable.Store
	dataDir string            // the store's directory; "" = no store
	fedCfg  federation.Config // NodeID "" = standalone
	fed     *federation.Node
	// illegal sums IllegalTransitions over every scheduler stop stopped.
	illegal uint64
}

// newNode boots member idx of spec's lab. Node 0's devices are dev-i
// seeded Seed+i, node k's p{k}-dev-i seeded Seed+1000k+i, so no two
// members simulate identical hardware and lab rows stay comparable across
// changes. dataDir "" runs without a store.
func newNode(spec Spec, idx int, dataDir string) (*Node, error) {
	n := &Node{Name: fmt.Sprintf("node-%d", idx), Spec: spec, idx: idx, dataDir: dataDir}
	if err := n.boot(""); err != nil {
		return nil, err
	}
	httpc := n.hs.Client()
	// Every measured job holds a watch stream open; without headroom the
	// transport would churn connections under the phase fan-out.
	if tr, ok := httpc.Transport.(*http.Transport); ok {
		tr.MaxIdleConnsPerHost = 4 * spec.Load.Jobs
	}
	n.Client = mqss.NewRemoteClient(n.hs.URL, httpc)
	return n, nil
}

// boot brings the node up: devices and fleet from the spec's seeds, the v2
// server with the spec's admission (server config, so it survives a
// restart), the store's recovered jobs and the federation's ID block when
// the node has them, then the listener on addr ("" = a fresh loopback
// port) and the heartbeats.
func (n *Node) boot(addr string) error {
	spec := n.Spec
	n.Fleet = fleet.New(spec.Fleet.Policy, nil)
	n.QPUs = make(map[string]*device.QPU, spec.Fleet.Devices)
	n.Names = nil
	for i := 0; i < spec.Fleet.Devices; i++ {
		name, seed := fmt.Sprintf("dev-%d", i), spec.Seed+int64(i)
		if n.idx > 0 {
			name, seed = fmt.Sprintf("p%d-dev-%d", n.idx, i), spec.Seed+int64(1000*n.idx+i)
		}
		qpu, err := device.New(device.Config{
			Name: name, Rows: spec.Fleet.Rows, Cols: spec.Fleet.Cols,
			Seed: seed, DigitalTwin: true,
		})
		if err == nil {
			qpu.SetExecLatency(spec.Fleet.ExecLatency)
			err = n.Fleet.AddDevice(name, qdmi.NewDevice(qpu, nil), spec.Fleet.Workers)
		}
		if err != nil {
			n.Fleet.Stop()
			return fmt.Errorf("scenario: %s: adding %s: %w", n.Name, name, err)
		}
		n.QPUs[name] = qpu
		n.Names = append(n.Names, name)
	}
	n.srv = mqss.NewFleetServer(n.Fleet)
	a := spec.Admission
	if a.Rate > 0 {
		n.srv.SetTenantLimits(a.Rate, a.Burst)
	}
	if adm := (tenant.Admission{MaxTenantQueue: a.MaxTenantQueue, HighWater: a.HighWater}); adm.Enabled() {
		n.Fleet.SetAdmission(adm)
	}
	if n.dataDir != "" {
		if err := n.openStore(); err != nil {
			return err
		}
	}
	if n.fedCfg.NodeID != "" {
		if err := n.join(); err != nil {
			return err
		}
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var l net.Listener
	var err error
	for attempt := 0; ; attempt++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if attempt >= 50 {
			return fmt.Errorf("scenario: %s: binding %s: %w", n.Name, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	n.hs = &httptest.Server{Listener: l, Config: &http.Server{Handler: n.srv}}
	n.hs.Start()
	if n.fed != nil {
		n.fed.Start()
	}
	return nil
}

// openStore replays the node's data directory into its fleet (group-commit
// fsync, the qhpcd default). A fresh directory recovers nothing, so the
// first boot and a reboot are one call.
func (n *Node) openStore() error {
	st, rec, err := durable.Open(n.dataDir, durable.Options{Sync: durable.SyncGroup})
	if err != nil {
		return fmt.Errorf("scenario: %s: opening store: %w", n.Name, err)
	}
	if _, err := n.srv.AttachStore(st, rec); err != nil {
		return fmt.Errorf("scenario: %s: restoring jobs: %w", n.Name, err)
	}
	n.store = st
	return nil
}

// stop takes the node down. A crash is kill -9: the store is abandoned
// first (the unflushed group-commit buffer is lost, and nothing the dying
// process does afterwards reaches disk) and its directory stays for the
// reboot. A clean stop closes the store last and removes the directory.
func (n *Node) stop(crash bool) {
	if crash && n.store != nil {
		n.store.Abandon()
	}
	if n.fed != nil {
		n.fed.Close() // heartbeater first: a real crash takes the whole process
	}
	n.srv.Close() // release v2 watch streams so the listener can drain
	n.hs.Close()
	n.Fleet.Stop()
	n.illegal += n.Fleet.Metrics().IllegalTransitions
	if !crash && n.store != nil {
		n.store.Close()
		os.RemoveAll(n.dataDir)
	}
}

// Crash is the kill -9 fault: it stops the node as a crash, then boots it
// again from the same data directory on the same address. Every job the
// WAL acked must come back: terminal ones with results, in-flight ones
// re-queued under their original IDs. A federation member rejoins with its
// ID block. Clients keep their handles — the address survives the reboot.
func (n *Node) Crash() error { return n.crash(nil) }

// crash is Crash with whileDown run in the gap, while the node is dead.
func (n *Node) crash(whileDown func() error) error {
	if n.store == nil {
		return fmt.Errorf("scenario: Crash needs EnableDurability in the Setup hook")
	}
	addr := n.hs.Listener.Addr().String()
	n.stop(true)
	if whileDown != nil {
		if err := whileDown(); err != nil {
			return err
		}
	}
	return n.boot(addr)
}

// DeviceName returns the i-th device name ("dev-0"...), a stable handle for
// fault hooks.
func (n *Node) DeviceName(i int) string { return n.Names[i%len(n.Names)] }

// QPU returns the raw simulator behind the i-th device, the layer fault
// injection and pacing hooks act on.
func (n *Node) QPU(i int) *device.QPU { return n.QPUs[n.DeviceName(i)] }

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
// scenario seed (newNode), the Rand source from the seed plus the run
// index, so reruns are independent but seeded.
func newEnv(spec Spec, run int) (*Env, error) {
	n, err := newNode(spec, 0, "")
	if err != nil {
		return nil, err
	}
	e := &Env{
		Node:       n,
		Rand:       rand.New(rand.NewSource(spec.Seed*1000 + int64(run))),
		injectDone: make(chan struct{}),
	}
	if spec.Hooks.Setup != nil {
		spec.Hooks.Setup(e)
	}
	return e, nil
}

// EnableDurability backs node 0 with a crash-durable job store in a
// throwaway directory. Call from a Setup hook; Crash then has a WAL to
// replay.
func (e *Env) EnableDurability() error {
	dir, err := os.MkdirTemp("", "scenario-wal-*")
	if err != nil {
		return fmt.Errorf("scenario: wal dir: %w", err)
	}
	e.dataDir = dir
	if err := e.openStore(); err != nil {
		os.RemoveAll(dir)
		e.dataDir = ""
		return err
	}
	return nil
}

// nodes returns every member: node 0, then the peers.
func (e *Env) nodes() []*Node { return append([]*Node{e.Node}, e.Peers...) }

// close tears the run's stack down — background churn first, then every
// node, peers before node 0 so node 0's proxied streams end at their
// source — and returns the count of transitions outside the lifecycle
// table over every scheduler the run stopped, for the runner's gate.
func (e *Env) close() (illegal uint64) {
	e.endInject()
	nodes := e.nodes()
	for i := len(nodes) - 1; i >= 0; i-- {
		nodes[i].stop(false)
		illegal += nodes[i].illegal
	}
	return illegal
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
