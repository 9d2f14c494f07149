package scenario

import (
	"fmt"
	"os"
	"time"

	"repro/internal/federation"
)

// Federated scenarios run node 0 as one member of a qhpcd federation plus
// N peers, each a full Node with its own crash-durable store. The measured
// load still enters through e.Client (node 0), so placement forwarding,
// owner proxying, and cross-node watch streams all ride the same wire path
// production clients exercise.

// Heartbeat pacing for lab federations: fast enough that peer death is
// detected inside one inject phase, slow enough to stay off the hot path.
const (
	fedLabHeartbeat = 20 * time.Millisecond
	fedLabDeadAfter = 150 * time.Millisecond
)

// EnableFederation joins node 0 with extra peer nodes into one federation.
// Call from a Setup hook; the peers are "node-1".. and each gets its own
// durable store so CrashPeer has a WAL to replay.
func (e *Env) EnableFederation(extra int) error {
	for k := 1; k <= extra; k++ {
		dir, err := os.MkdirTemp("", "scenario-fed-*")
		if err != nil {
			return fmt.Errorf("scenario: peer wal dir: %w", err)
		}
		p, err := newNode(e.Spec, k, dir)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		e.Peers = append(e.Peers, p)
	}
	// Every member knows every other; the URL map is complete only now,
	// which is why the servers start before the federation layer attaches.
	urls := map[string]string{}
	for _, n := range e.nodes() {
		urls[n.Name] = n.hs.URL
	}
	for _, n := range e.nodes() {
		peers := map[string]string{}
		for id, u := range urls {
			if id != n.Name {
				peers[id] = u
			}
		}
		n.fedCfg = federation.Config{
			NodeID: n.Name, SelfURL: urls[n.Name], Peers: peers,
			HeartbeatEvery: fedLabHeartbeat, DeadAfter: fedLabDeadAfter,
		}
		if err := n.join(); err != nil {
			return err
		}
	}
	for _, n := range e.nodes() {
		n.fed.Start()
	}
	return nil
}

// join makes the node the federation member its fedCfg names: the server
// attaches the membership, and with it the fleet's ID block.
func (n *Node) join() (err error) {
	if n.fed, err = federation.New(n.fedCfg); err != nil {
		return err
	}
	n.srv.AttachFederation(n.fed)
	return nil
}

// Federation returns the node's federation membership (nil unless
// EnableFederation ran).
func (n *Node) Federation() *federation.Node { return n.fed }

// CrashPeer is the federated kill -9 of peer idx: the Crash reboot, with
// two waits around the gap. Node 0's failure detector must declare the
// peer dead on heartbeats alone before it reboots, and alive again once it
// has rejoined. Jobs the dead node owned are refused with retryable 503s
// during the window — never re-placed — and its WAL replay must re-admit
// every acked job under its original ID.
func (e *Env) CrashPeer(idx int) error {
	if e.fed == nil {
		return fmt.Errorf("scenario: CrashPeer needs EnableFederation in the Setup hook")
	}
	p := e.Peers[idx]
	if err := p.crash(func() error { return e.awaitAlive(p.Name, false) }); err != nil {
		return err
	}
	return e.awaitAlive(p.Name, true)
}

// awaitAlive waits, bounded, until node 0's view of member name is alive
// (or dead) — no backchannel, the heartbeats decide.
func (e *Env) awaitAlive(name string, alive bool) error {
	deadline := time.Now().Add(20 * fedLabDeadAfter)
	for e.fed.Alive(name) != alive {
		if time.Now().After(deadline) {
			if alive {
				return fmt.Errorf("scenario: %s never rejoined after reboot", name)
			}
			return fmt.Errorf("scenario: node-0 never declared %s dead", name)
		}
		time.Sleep(fedLabHeartbeat / 2)
	}
	return nil
}
