package scenario

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/device"
	"repro/internal/durable"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/mqss"
	"repro/internal/qdmi"
	"repro/internal/tenant"
)

// Federated scenarios run the main Env stack as one member of a qhpcd
// federation plus N extra peers, each a full node: its own fleet, devices,
// crash-durable store, and v2 server on a real listener. The measured load
// still enters through e.Client (the main node), so placement forwarding,
// owner proxying, and cross-node watch streams all ride the same wire path
// production clients exercise.

// Heartbeat pacing for lab federations: fast enough that peer death is
// detected inside one inject phase, slow enough to stay off the hot path.
const (
	fedLabHeartbeat = 20 * time.Millisecond
	fedLabDeadAfter = 150 * time.Millisecond
)

// FedPeer is one extra federation member beside the main Env stack.
type FedPeer struct {
	Name   string
	Fleet  *fleet.Scheduler
	QPUs   map[string]*device.QPU
	Client *mqss.Client

	cfg     federation.Config
	srv     *mqss.Server
	hs      *httptest.Server
	fed     *federation.Node
	store   *durable.Store
	dataDir string
}

// EnableFederation joins the main stack with extra full peer nodes into
// one federation. Call from a Setup hook; the main node is "node-0" and
// peers are "node-1".. Each peer gets its own durable store so CrashPeer
// has a WAL to replay.
func (e *Env) EnableFederation(extra int) error {
	names := make([]string, extra+1)
	urls := map[string]string{}
	names[0] = "node-0"
	urls["node-0"] = e.hs.URL
	for i := 1; i <= extra; i++ {
		name := fmt.Sprintf("node-%d", i)
		p := &FedPeer{Name: name}
		if err := e.buildPeer(p, i); err != nil {
			return err
		}
		names[i] = name
		urls[name] = p.hs.URL
		e.Peers = append(e.Peers, p)
	}
	// Every member knows every other; the URL map is complete only now,
	// which is why the servers start before the federation layer attaches.
	join := func(self string, srv *mqss.Server, f *fleet.Scheduler) (*federation.Node, federation.Config, error) {
		peers := map[string]string{}
		for id, u := range urls {
			if id != self {
				peers[id] = u
			}
		}
		cfg := federation.Config{
			NodeID: self, SelfURL: urls[self], Peers: peers,
			HeartbeatEvery: fedLabHeartbeat, DeadAfter: fedLabDeadAfter,
		}
		fed, err := federation.New(cfg)
		if err != nil {
			return nil, cfg, err
		}
		f.SetIDBase(fed.SelfBase())
		f.SetIDLimit(fed.SelfLimit())
		f.SetNodeID(self)
		srv.AttachFederation(fed)
		return fed, cfg, nil
	}
	fed, _, err := join("node-0", e.srv, e.Fleet)
	if err != nil {
		return err
	}
	e.fed = fed
	for _, p := range e.Peers {
		if p.fed, p.cfg, err = join(p.Name, p.srv, p.Fleet); err != nil {
			return err
		}
	}
	e.fed.Start()
	for _, p := range e.Peers {
		p.fed.Start()
	}
	return nil
}

// Federation returns the main node's federation membership (nil unless
// EnableFederation ran).
func (e *Env) Federation() *federation.Node { return e.fed }

// buildPeer constructs one peer node: durable store, fleet with the spec's
// device profile (distinct seeds), v2 server, live listener.
func (e *Env) buildPeer(p *FedPeer, idx int) error {
	dir, err := os.MkdirTemp("", "scenario-fed-*")
	if err != nil {
		return fmt.Errorf("scenario: peer wal dir: %w", err)
	}
	st, _, err := durable.Open(dir, durable.Options{Sync: durable.SyncGroup})
	if err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("scenario: peer store: %w", err)
	}
	p.dataDir, p.store = dir, st
	if err := e.buildPeerFleet(p, idx); err != nil {
		return err
	}
	p.Fleet.AttachStore(st)
	p.srv = mqss.NewFleetServer(p.Fleet)
	p.srv.AttachStore(st)
	e.applyPeerAdmission(p)
	p.hs = httptest.NewServer(p.srv)
	p.Client = mqss.NewRemoteClient(p.hs.URL, p.hs.Client())
	return nil
}

// buildPeerFleet mirrors buildFleet for a peer, with per-peer device seeds
// so no two nodes simulate identical hardware.
func (e *Env) buildPeerFleet(p *FedPeer, idx int) error {
	spec := e.Spec
	p.Fleet = fleet.New(spec.Fleet.Policy, nil)
	p.QPUs = make(map[string]*device.QPU, spec.Fleet.Devices)
	for i := 0; i < spec.Fleet.Devices; i++ {
		name := fmt.Sprintf("p%d-dev-%d", idx, i)
		qpu, err := device.New(device.Config{
			Name: name, Rows: spec.Fleet.Rows, Cols: spec.Fleet.Cols,
			Seed: spec.Seed + int64(1000*idx+i), DigitalTwin: true,
		})
		if err != nil {
			p.Fleet.Stop()
			return fmt.Errorf("scenario: building %s: %w", name, err)
		}
		qpu.SetExecLatency(spec.Fleet.ExecLatency)
		if err := p.Fleet.AddDevice(name, qdmi.NewDevice(qpu, nil), spec.Fleet.Workers); err != nil {
			p.Fleet.Stop()
			return fmt.Errorf("scenario: adding %s: %w", name, err)
		}
		p.QPUs[name] = qpu
	}
	return nil
}

// applyPeerAdmission pushes the spec's admission profile onto a peer —
// forwarded submits draw their tenant tokens at the owner, so the owner
// must carry the same limits the entry node does.
func (e *Env) applyPeerAdmission(p *FedPeer) {
	a := e.Spec.Admission
	if a.Rate > 0 {
		p.srv.SetTenantLimits(a.Rate, a.Burst)
	}
	if adm := (tenant.Admission{MaxTenantQueue: a.MaxTenantQueue, HighWater: a.HighWater}); adm.Enabled() {
		p.Fleet.SetAdmission(adm)
	}
}

// CrashPeer is the federated kill -9: it abandons peer idx's store
// mid-flight, tears the whole node down (heartbeater included), waits for
// the main node's failure detector to declare it dead, then reboots it
// from the same data directory on the same address and waits until the
// heartbeats revive it. Jobs the dead node owned are refused with
// retryable 503s during the window — never re-placed — and its WAL replay
// must re-admit every acked job under its original ID.
func (e *Env) CrashPeer(idx int) error {
	if e.fed == nil {
		return fmt.Errorf("scenario: CrashPeer needs EnableFederation in the Setup hook")
	}
	p := e.Peers[idx]
	addr := p.hs.Listener.Addr().String()

	// The kill: heartbeater first (a real crash takes the whole process),
	// then the listener and the fleet. Nothing else reaches disk.
	p.store.Abandon()
	p.fed.Close()
	p.srv.Close()
	p.hs.Close()
	e.stopFleet(p.Fleet)

	// The failure detector must notice on its own — no backchannel.
	deadline := time.Now().Add(20 * fedLabDeadAfter)
	for e.fed.Alive(p.Name) && time.Now().Before(deadline) {
		time.Sleep(fedLabHeartbeat / 2)
	}
	if e.fed.Alive(p.Name) {
		return fmt.Errorf("scenario: main node never declared %s dead", p.Name)
	}

	// The reboot: WAL replay, identical fleet, same address, rejoin.
	st, rec, err := durable.Open(p.dataDir, durable.Options{Sync: durable.SyncGroup})
	if err != nil {
		return fmt.Errorf("scenario: reopening peer store: %w", err)
	}
	if err := e.buildPeerFleet(p, idx+1); err != nil {
		return err
	}
	p.Fleet.AttachStore(st)
	if _, err := p.Fleet.Restore(rec.FleetJobs); err != nil {
		return fmt.Errorf("scenario: restoring peer jobs: %w", err)
	}
	p.store = st
	p.srv = mqss.NewFleetServer(p.Fleet)
	p.srv.AttachStore(st)
	e.applyPeerAdmission(p)
	if p.fed, err = federation.New(p.cfg); err != nil {
		return err
	}
	p.Fleet.SetIDBase(p.fed.SelfBase())
	p.Fleet.SetIDLimit(p.fed.SelfLimit())
	p.Fleet.SetNodeID(p.Name)
	p.srv.AttachFederation(p.fed)

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
	p.hs = &httptest.Server{Listener: l, Config: &http.Server{Handler: p.srv}}
	p.hs.Start()
	p.Client = mqss.NewRemoteClient(p.hs.URL, p.hs.Client())
	p.fed.Start()

	// Rejoin confirmed: the main node's view flips back to alive.
	deadline = time.Now().Add(20 * fedLabDeadAfter)
	for !e.fed.Alive(p.Name) && time.Now().Before(deadline) {
		time.Sleep(fedLabHeartbeat / 2)
	}
	if !e.fed.Alive(p.Name) {
		return fmt.Errorf("scenario: %s never rejoined after reboot", p.Name)
	}
	return nil
}

// closePeers tears the extra federation members down.
func (e *Env) closePeers() {
	if e.fed != nil {
		e.fed.Close()
	}
	for _, p := range e.Peers {
		p.fed.Close()
		p.srv.Close()
		p.hs.Close()
		e.stopFleet(p.Fleet)
		p.store.Close()
		os.RemoveAll(p.dataDir)
	}
}

// fedConserve asserts per-tenant job conservation on every member — the
// cross-node "no job lost or double-executed" invariant. Each job lives on
// exactly one node (its ID names the owner), so summing per-node
// conservation covers the federation.
func fedConserve(e *Env) error {
	if err := conserveTenants(e); err != nil {
		return fmt.Errorf("node-0: %w", err)
	}
	for _, p := range e.Peers {
		for _, r := range p.Fleet.TenantUsage() {
			total := r.Completed + r.Failed + r.Cancelled + r.Interrupted + r.Shed + uint64(r.Queued)
			if r.Submitted != total {
				return fmt.Errorf("%s tenant %s: %d submitted but %d accounted (%+v)", p.Name, r.User, r.Submitted, total, r)
			}
		}
	}
	return nil
}
