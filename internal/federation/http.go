package federation

import (
	"encoding/json"
	"net/http"
)

// OwnerInfo answers GET /api/v2/federation/owner?id=N: which member
// owns job ID N and where to reach it.
type OwnerInfo struct {
	JobID int    `json:"job_id"`
	Node  string `json:"node"`
	URL   string `json:"url,omitempty"`
	Self  bool   `json:"self,omitempty"`
	Alive bool   `json:"alive"`
}

// Owner resolves the directory entry for a job ID. ok is false when the
// ID falls outside every member's range.
func (n *Node) Owner(jobID int) (OwnerInfo, bool) {
	owner := n.OwnerOfJobID(jobID)
	if owner == "" {
		return OwnerInfo{}, false
	}
	return OwnerInfo{
		JobID: jobID,
		Node:  owner,
		URL:   n.PeerURL(owner),
		Self:  owner == n.cfg.NodeID,
		Alive: n.Alive(owner),
	}, true
}

// HandleHeartbeat serves POST /api/v2/federation/heartbeat. The sender
// names itself in the X-QHPC-Node header; a successful exchange marks
// it alive in this node's table too.
func (n *Node) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	n.MarkSeen(r.Header.Get(HeaderNode))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"node": n.cfg.NodeID})
}
