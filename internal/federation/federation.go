// Package federation glues N qhpcd nodes — each with its own fleet,
// qrm pipelines, and durable store — into one logical control plane.
//
// Placement: new jobs are placed on a node by rendezvous (highest-random-
// weight) hashing over (tenant, idempotency-key). Retries carrying the
// same idempotency key therefore land on the same owner regardless of
// which node they entered through, so idempotent replay keeps working
// across the federation. Submissions without a key are spread by a
// per-entry-node counter.
//
// Directory: job IDs are globally unique because the ID space is
// partitioned — the i-th node (in sorted node-ID order) mints IDs in
// (i*IDStride, (i+1)*IDStride]. Owner lookup for an existing job is a
// pure function of its ID, so the rendezvous directory needs no
// replication and survives any subset of nodes crashing.
//
// Liveness: every node heartbeats every peer. A peer is considered dead
// once DeadAfter elapses without a successful exchange in either
// direction. Jobs owned by a dead peer are NOT re-placed: the peer's
// durable store is the single source of truth for them, and re-placing
// would risk double execution when it restarts and replays its WAL.
// Submissions hashed to a dead owner fail with a retryable 503 instead.
package federation

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mix"
)

const (
	// IDStride partitions the global job-ID space between nodes: the
	// node at sorted index i mints IDs in (i*IDStride, (i+1)*IDStride].
	IDStride = 10_000_000

	// HeaderNode carries the sending node's ID on heartbeats and
	// proxied requests.
	HeaderNode = "X-QHPC-Node"
	// HeaderForwardedFrom marks a request that was already proxied once.
	// A node receiving it must not proxy again; doing so would mean the
	// directory views disagree, which is a hard error, not a retry.
	HeaderForwardedFrom = "X-QHPC-Forwarded-From"
)

// Config describes one node's view of the federation.
type Config struct {
	// NodeID names this node; must be unique across the federation.
	NodeID string
	// SelfURL is the base URL peers can reach this node at.
	SelfURL string
	// Peers maps peer node IDs to their base URLs. It must not contain
	// NodeID; the full member list is Peers ∪ {NodeID}.
	Peers map[string]string
	// HeartbeatEvery is the heartbeat period (default 1s).
	HeartbeatEvery time.Duration
	// DeadAfter is how long a peer may be silent before it is declared
	// dead (default 3×HeartbeatEvery).
	DeadAfter time.Duration
	// Client is the HTTP client used for heartbeats (default: 2s timeout).
	Client *http.Client
}

// PeerStatus is one row of the federation membership table.
type PeerStatus struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Self     bool   `json:"self,omitempty"`
	Alive    bool   `json:"alive"`
	IDBase   int    `json:"id_base"`
	LastSeen int64  `json:"last_seen_ms"` // ms since last contact; -1 if never, 0 for self
}

// Status is the snapshot served by GET /api/v2/federation/status.
type Status struct {
	NodeID string       `json:"node_id"`
	Nodes  int          `json:"nodes"`
	Alive  int          `json:"alive"`
	Peers  []PeerStatus `json:"peers"`
}

// Metrics is a counter snapshot for the qhpc_fed_* telemetry families.
type Metrics struct {
	PeersAlive       int
	PeersDead        int
	HeartbeatsSent   uint64
	HeartbeatsFailed uint64
	ForwardedSubmits uint64
	ProxiedReads     uint64
	ProxiedStreams   uint64
	ProxyErrors      uint64
}

// Node is one member of the federation. All methods are safe for
// concurrent use.
type Node struct {
	cfg   Config
	ids   []string       // all member IDs, sorted; index defines the ID base
	base  map[string]int // node ID -> first job ID minus one
	httpc *http.Client

	mu        sync.Mutex
	lastSeen  map[string]time.Time // peer ID -> last successful contact
	started   bool
	startedAt time.Time // when the heartbeat loop began
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup

	spread           atomic.Uint64 // keyless-submission spread counter
	heartbeatsSent   atomic.Uint64
	heartbeatsFailed atomic.Uint64
	forwardedSubmits atomic.Uint64
	proxiedReads     atomic.Uint64
	proxiedStreams   atomic.Uint64
	proxyErrors      atomic.Uint64
}

// New validates cfg and builds the node. The member list (and therefore
// the ID-space partition) is fixed at construction; every node in the
// federation must be configured with the same membership.
func New(cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("federation: NodeID is required")
	}
	if _, ok := cfg.Peers[cfg.NodeID]; ok {
		return nil, fmt.Errorf("federation: peers must not include self %q", cfg.NodeID)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3 * cfg.HeartbeatEvery
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 2 * time.Second}
	}
	ids := make([]string, 0, len(cfg.Peers)+1)
	ids = append(ids, cfg.NodeID)
	for id, url := range cfg.Peers {
		if id == "" || url == "" {
			return nil, fmt.Errorf("federation: peer entries need both id and url (got %q=%q)", id, url)
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	base := make(map[string]int, len(ids))
	for i, id := range ids {
		base[id] = i * IDStride
	}
	return &Node{
		cfg:      cfg,
		ids:      ids,
		base:     base,
		httpc:    cfg.Client,
		lastSeen: make(map[string]time.Time, len(cfg.Peers)),
		stop:     make(chan struct{}),
	}, nil
}

// Self returns this node's ID.
func (n *Node) Self() string { return n.cfg.NodeID }

// SelfURL returns the base URL peers use to reach this node.
func (n *Node) SelfURL() string { return n.cfg.SelfURL }

// SelfBase returns the job-ID base for this node: local schedulers must
// mint IDs strictly greater than it.
func (n *Node) SelfBase() int { return n.base[n.cfg.NodeID] }

// SelfLimit returns the last job ID this node may mint (inclusive). An
// ID past it falls into the next sorted member's block and OwnerOfJobID
// would silently misroute it, so local schedulers must refuse at the
// boundary rather than spill over (mqss.Server.AttachFederation hands the
// limit to the fleet).
func (n *Node) SelfLimit() int { return n.base[n.cfg.NodeID] + IDStride }

// OwnerOfJobID maps a job ID to the member that owns it, or "" if the
// ID is outside every member's range.
func (n *Node) OwnerOfJobID(id int) string {
	if id <= 0 {
		return ""
	}
	idx := (id - 1) / IDStride
	if idx < 0 || idx >= len(n.ids) {
		return ""
	}
	return n.ids[idx]
}

// PlaceJob picks the owner for a new submission. With an idempotency
// key the choice is rendezvous-hashed on (tenant, key) so every node
// agrees; without one, placement spreads deterministically per entry
// node but needs no cross-node agreement (the job has no identity until
// its owner mints an ID).
func (n *Node) PlaceJob(tenant, idemKey string) string {
	if idemKey == "" {
		idemKey = fmt.Sprintf("\x00spread:%s:%d", n.cfg.NodeID, n.spread.Add(1))
	}
	best := ""
	var bestScore uint64
	for _, id := range n.ids {
		h := fnv.New64a()
		io.WriteString(h, id)
		h.Write([]byte{0})
		io.WriteString(h, tenant)
		h.Write([]byte{0})
		io.WriteString(h, idemKey)
		// Raw FNV barely avalanches on short trailing differences — the
		// high bits (and so the rendezvous ordering) would be decided by
		// the node-ID prefix alone. The Fmix64 finalizer spreads every
		// input bit across the digest.
		if s := mix.Fmix64(h.Sum64()); best == "" || s > bestScore || (s == bestScore && id < best) {
			best, bestScore = id, s
		}
	}
	return best
}

// PeerURL returns the base URL of a member, or "" for self/unknown.
func (n *Node) PeerURL(id string) string {
	return strings.TrimSuffix(n.cfg.Peers[id], "/")
}

// Alive reports whether a member is currently considered alive. Self is
// always alive. Before the heartbeat loop starts every peer is presumed
// alive (static topologies, tests, benches).
func (n *Node) Alive(id string) bool {
	if id == n.cfg.NodeID {
		return true
	}
	if _, ok := n.cfg.Peers[id]; !ok {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.started {
		return true
	}
	last, ok := n.lastSeen[id]
	if !ok {
		// Never reached since the loop started: give it one full
		// DeadAfter window from loop start before declaring death.
		// (Start pre-seeds lastSeen for every configured peer, so today
		// this only triggers if that seeding is ever refactored away.)
		return time.Since(n.startedAt) <= n.cfg.DeadAfter
	}
	return time.Since(last) <= n.cfg.DeadAfter
}

// MarkSeen records a successful contact with a peer (an inbound
// heartbeat, or any successful proxied exchange).
func (n *Node) MarkSeen(id string) {
	if id == "" || id == n.cfg.NodeID {
		return
	}
	if _, ok := n.cfg.Peers[id]; !ok {
		return
	}
	n.mu.Lock()
	n.lastSeen[id] = time.Now()
	n.mu.Unlock()
}

// Start launches the heartbeat loop. It is a no-op when the node has no
// peers or was already started.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started || len(n.cfg.Peers) == 0 {
		n.mu.Unlock()
		return
	}
	n.started = true
	now := time.Now()
	n.startedAt = now
	for id := range n.cfg.Peers {
		// Presume peers alive at start; death requires DeadAfter of
		// silence, not a slow first round-trip.
		if _, ok := n.lastSeen[id]; !ok {
			n.lastSeen[id] = now
		}
	}
	n.mu.Unlock()
	n.wg.Add(1)
	go n.heartbeatLoop()
}

// Close stops the heartbeat loop and waits for it to exit.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	n.beatAll()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.beatAll()
		}
	}
}

func (n *Node) beatAll() {
	var wg sync.WaitGroup
	for id, url := range n.cfg.Peers {
		wg.Add(1)
		go func(id, url string) {
			defer wg.Done()
			n.beatOne(id, url)
		}(id, url)
	}
	wg.Wait()
}

func (n *Node) beatOne(id, url string) {
	n.heartbeatsSent.Add(1)
	req, err := http.NewRequest(http.MethodPost, strings.TrimSuffix(url, "/")+"/api/v2/federation/heartbeat", nil)
	if err != nil {
		n.heartbeatsFailed.Add(1)
		return
	}
	req.Header.Set(HeaderNode, n.cfg.NodeID)
	resp, err := n.httpc.Do(req)
	if err != nil {
		n.heartbeatsFailed.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.heartbeatsFailed.Add(1)
		return
	}
	n.MarkSeen(id)
}

// Status snapshots the membership table.
func (n *Node) Status() Status {
	n.mu.Lock()
	started, startedAt := n.started, n.startedAt
	seen := make(map[string]time.Time, len(n.lastSeen))
	for id, t := range n.lastSeen {
		seen[id] = t
	}
	n.mu.Unlock()
	st := Status{NodeID: n.cfg.NodeID, Nodes: len(n.ids)}
	now := time.Now()
	for _, id := range n.ids {
		p := PeerStatus{ID: id, IDBase: n.base[id]}
		if id == n.cfg.NodeID {
			p.Self, p.Alive, p.URL = true, true, n.cfg.SelfURL
		} else {
			p.URL = n.cfg.Peers[id]
			last, ok := seen[id]
			switch {
			case !started:
				p.Alive, p.LastSeen = true, -1
			case !ok:
				// Same grace window as Alive(): unreachable while Start
				// pre-seeds lastSeen, kept consistent in case it stops.
				p.Alive, p.LastSeen = now.Sub(startedAt) <= n.cfg.DeadAfter, -1
			default:
				p.Alive = now.Sub(last) <= n.cfg.DeadAfter
				p.LastSeen = now.Sub(last).Milliseconds()
			}
		}
		if p.Alive {
			st.Alive++
		}
		st.Peers = append(st.Peers, p)
	}
	return st
}

// Metrics snapshots the qhpc_fed_* counters.
func (n *Node) Metrics() Metrics {
	st := n.Status()
	return Metrics{
		PeersAlive:       st.Alive,
		PeersDead:        st.Nodes - st.Alive,
		HeartbeatsSent:   n.heartbeatsSent.Load(),
		HeartbeatsFailed: n.heartbeatsFailed.Load(),
		ForwardedSubmits: n.forwardedSubmits.Load(),
		ProxiedReads:     n.proxiedReads.Load(),
		ProxiedStreams:   n.proxiedStreams.Load(),
		ProxyErrors:      n.proxyErrors.Load(),
	}
}

// NoteForwardedSubmit counts a submission forwarded to its hash-owner.
func (n *Node) NoteForwardedSubmit() { n.forwardedSubmits.Add(1) }

// NoteProxiedRead counts a unary GET/DELETE proxied to the owner.
func (n *Node) NoteProxiedRead() { n.proxiedReads.Add(1) }

// NoteProxiedStream counts a watch stream proxied to the owner.
func (n *Node) NoteProxiedStream() { n.proxiedStreams.Add(1) }

// NoteProxyError counts a proxy attempt that failed.
func (n *Node) NoteProxyError() { n.proxyErrors.Add(1) }
