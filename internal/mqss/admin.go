package mqss

import (
	"net/http"
	"time"

	"repro/internal/durable"
	"repro/internal/fleet"
)

// pathV2AdminStore exposes durable-store health: WAL position, sync mode,
// segment footprint, compaction history, and what the last restart
// recovered. Operators hit it through `qhpcctl store status`.
const pathV2AdminStore = "/api/v2/admin/store"

// StoreStatus is the wire shape of GET /api/v2/admin/store. When the
// daemon runs without -data-dir the endpoint still answers 200 with
// attached=false so tooling can distinguish "no durability configured"
// from "endpoint missing".
type StoreStatus struct {
	Attached bool   `json:"attached"`
	Dir      string `json:"dir,omitempty"`
	SyncMode string `json:"sync_mode,omitempty"`

	LastLSN    uint64 `json:"last_lsn,omitempty"`
	DurableLSN uint64 `json:"durable_lsn,omitempty"`
	Appends    uint64 `json:"appends,omitempty"`
	Fsyncs     uint64 `json:"fsyncs,omitempty"`
	Bytes      uint64 `json:"bytes_written,omitempty"`
	Segments   int    `json:"segments,omitempty"`
	WALBytes   int64  `json:"wal_bytes,omitempty"`

	SnapshotLSN    uint64 `json:"snapshot_lsn,omitempty"`
	Compactions    uint64 `json:"compactions,omitempty"`
	LastCompaction string `json:"last_compaction,omitempty"` // RFC 3339; empty when never

	// Replay is the current process's startup replay; Restored is the
	// scheduler's disposition of the jobs it recovered
	// (fleet.Scheduler.Restored).
	Replay   *durable.ReplayStats `json:"replay,omitempty"`
	Restored *fleet.RestoreStats  `json:"restored,omitempty"`
}

// AttachStore boots the server's fleet on the durable job store: the fleet
// journals every transition to st, the jobs rec recovered (Idempotency-Key
// bindings included) go back into it through fleet Restore, and the admin
// endpoint and qhpc_wal_* metric families start reporting. rec is what
// durable.Open returned; a fresh directory's is empty, so a first boot and
// a reboot are the same call. Attach before the server takes traffic.
func (s *Server) AttachStore(st *durable.Store, rec *durable.Recovery) (fleet.RestoreStats, error) {
	s.fleet.AttachStore(st)
	rs, err := s.fleet.Restore(rec.FleetJobs)
	if err != nil {
		return rs, err
	}
	s.store = st
	return rs, nil
}

func (s *Server) handleV2AdminStore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeV2Error(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"method not allowed; use GET", false)
		return
	}
	if s.store == nil {
		writeJSON(w, http.StatusOK, StoreStatus{Attached: false})
		return
	}
	st, restored := s.store.Stats(), s.fleet.Restored()
	out := StoreStatus{
		Attached:    true,
		Dir:         st.Dir,
		SyncMode:    string(st.Mode),
		LastLSN:     st.LastLSN,
		DurableLSN:  st.Durable,
		Appends:     st.Appends,
		Fsyncs:      st.Fsyncs,
		Bytes:       st.Bytes,
		Segments:    st.Segments,
		WALBytes:    st.WALBytes,
		SnapshotLSN: st.SnapshotLSN,
		Compactions: st.Compactions,
		Replay:      &st.Replay,
		Restored:    &restored,
	}
	if !st.LastCompaction.IsZero() {
		out.LastCompaction = st.LastCompaction.UTC().Format(time.RFC3339)
	}
	writeJSON(w, http.StatusOK, out)
}
