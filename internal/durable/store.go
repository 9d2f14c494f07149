package durable

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fleet"
)

// Record kinds: the first payload byte tags how the JSON body decodes.
const (
	recLegacyQRMJob = 'Q' // read-only: pre-fleet single-device job upsert (legacyFleetJob)
	recFleetJob     = 'F' // fleetJobRecord — fleet scheduler job upsert
	recLegacyIdem   = 'I' // read-only: key → job-ID binding from before Job.IdemKey (legacyIdemRecord)
	recMeta         = 'M' // metaRecord — snapshot header
)

// fleetJobRecord wraps a fleet job for the journal. SubmitUnixMs rides
// outside the job because fleet.Job's JSON shape excludes it (json:"-"); the
// store persists it so the dispatch deadline keeps its original budget
// across a restart.
type fleetJobRecord struct {
	SubmitUnixMs int64      `json:"submit_unix_ms,omitempty"`
	Job          *fleet.Job `json:"job"`
}

type metaRecord struct {
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	SavedUnixMs int64  `json:"saved_unix_ms"`
}

// Options parameterizes Open.
type Options struct {
	// Sync selects the fsync policy; empty defaults to SyncGroup.
	Sync SyncMode
}

// ReplayStats describes what startup recovery read from disk.
type ReplayStats struct {
	Records      int           `json:"records"`
	SkippedBytes int64         `json:"skipped_bytes,omitempty"` // torn/corrupt tail bytes ignored
	SnapshotLSN  uint64        `json:"snapshot_lsn"`
	Segments     int           `json:"segments"`
	Duration     time.Duration `json:"-"`
	DurationMs   float64       `json:"duration_ms"`
}

// RestoreOutcome is what the scheduler did with the recovered jobs; the
// store only learns it via NoteRestore (replay hands jobs over, the
// scheduler decides requeue vs. expire).
type RestoreOutcome struct {
	Terminal int `json:"terminal"`
	Requeued int `json:"requeued"`
	Expired  int `json:"expired"`
}

// Recovery is the materialized state Open rebuilt from snapshot + WAL,
// ready to hand to fleet.Scheduler.Restore (each job carries its own
// Idempotency-Key binding).
type Recovery struct {
	FleetJobs []*fleet.Job
	Stats     ReplayStats
}

// Stats is a point-in-time snapshot of store health for the admin endpoint
// and the qhpc_wal_* Prometheus families.
type Stats struct {
	Dir      string
	Mode     SyncMode
	LastLSN  uint64
	Durable  uint64
	Appends  uint64
	Fsyncs   uint64
	Bytes    uint64 // journal bytes written since open
	Segments int    // journal segment files on disk
	WALBytes int64  // journal + snapshot bytes on disk

	SnapshotLSN    uint64
	Compactions    uint64
	LastCompaction time.Time

	Replay   ReplayStats
	Restored RestoreOutcome
}

// Store is the crash-durable job store: a WAL of job-record upserts plus a
// last-write-wins materialized view that periodic compaction snapshots.
// One Store serves one fleet scheduler.
type Store struct {
	dir string
	w   *wal

	mu          sync.Mutex
	fleetJobs   map[int][]byte // latest journal payload per job, kind byte included
	abandoned   bool
	snapshotLSN uint64
	compactions uint64
	lastCompact time.Time
	replay      ReplayStats
	restored    RestoreOutcome
	dropped     uint64 // records lost to marshal failures (should be zero)
}

// Open replays snapshot-then-WAL from dir (creating it when missing) and
// returns the store with a fresh active segment plus everything the
// scheduler needs to restore. Torn-tail handling: replay stops cleanly at
// the first short or corrupt record of a segment and continues with the
// next segment — new records always land in a fresh segment, so bytes after
// a torn tail can only be pre-crash garbage.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	mode := opts.Sync
	if mode == "" {
		mode = SyncGroup
	}
	if _, err := ParseSyncMode(string(mode)); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: creating data dir: %w", err)
	}
	start := time.Now()
	s := &Store{
		dir:       dir,
		fleetJobs: make(map[int][]byte),
	}
	var lastLSN uint64
	legacyIdem := make(map[int]string) // job ID -> key, from 'I' records
	apply := func(lsn uint64, payload []byte) {
		if lsn > lastLSN {
			lastLSN = lsn
		}
		s.replay.Records++
		s.applyPayload(payload, legacyIdem)
	}
	if data, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		s.replay.SkippedBytes += readFrames(data, apply)
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("durable: reading snapshot: %w", err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: listing WAL segments: %w", err)
	}
	s.replay.Segments = len(seqs)
	var maxSeq uint64
	for _, seq := range seqs {
		if seq > maxSeq {
			maxSeq = seq
		}
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return nil, nil, fmt.Errorf("durable: reading WAL segment %d: %w", seq, err)
		}
		s.replay.SkippedBytes += readFrames(data, apply)
	}
	s.replay.SnapshotLSN = s.snapshotLSN
	s.replay.Duration = time.Since(start)
	s.replay.DurationMs = float64(s.replay.Duration.Microseconds()) / 1000

	w, err := openWAL(dir, mode, maxSeq+1, lastLSN)
	if err != nil {
		return nil, nil, err
	}
	s.w = w

	rec := &Recovery{Stats: s.replay}
	for id, payload := range s.fleetJobs {
		var r fleetJobRecord
		if json.Unmarshal(payload[1:], &r) != nil || r.Job == nil {
			continue
		}
		if key := legacyIdem[id]; key != "" && r.Job.IdemKey == "" {
			// Upgrade path: fold the 'I' binding onto its job, in the view
			// too, so the next Compact writes it inside the 'F' record and
			// no 'I' frame outlives the snapshot.
			r.Job.IdemKey = key
			if body, err := json.Marshal(r); err == nil {
				s.fleetJobs[id] = append([]byte{recFleetJob}, body...)
			}
		}
		r.Job.SubmitUnixMs = r.SubmitUnixMs
		rec.FleetJobs = append(rec.FleetJobs, r.Job)
	}
	return s, rec, nil
}

// applyPayload folds one journal record into the materialized view.
// Unknown kinds and undecodable bodies are skipped — replay never errors on
// record content, only framing decides where a segment ends. Legacy 'I'
// bindings collect in legacyIdem: later 'F' records of the same job, written
// before jobs carried their key, would otherwise overwrite the fold.
func (s *Store) applyPayload(payload []byte, legacyIdem map[int]string) {
	if len(payload) == 0 {
		return
	}
	body := payload[1:]
	switch payload[0] {
	case recLegacyQRMJob:
		// Upgrade path: a data dir written by a single-device daemon holds
		// 'Q' records. Each folds into the one job map as the equivalent
		// fleet record under its original ID, so Restore re-queues it and
		// the next Compact rewrites it as 'F'.
		if r, ok := legacyFleetJob(body); ok {
			if fbody, err := json.Marshal(r); err == nil {
				s.fleetJobs[r.Job.ID] = append([]byte{recFleetJob}, fbody...)
			}
		}
	case recFleetJob:
		var r fleetJobRecord
		if json.Unmarshal(body, &r) == nil && r.Job != nil {
			s.fleetJobs[r.Job.ID] = append([]byte(nil), payload...)
		}
	case recLegacyIdem:
		if r, ok := legacyIdemRecord(body); ok {
			legacyIdem[r.JobID] = r.Key
		}
	case recMeta:
		var r metaRecord
		if json.Unmarshal(body, &r) == nil && r.SnapshotLSN > s.snapshotLSN {
			s.snapshotLSN = r.SnapshotLSN
		}
	}
}

// JournalFleetJob journals the current state of a fleet job — submission
// (with its Idempotency-Key binding), claims, failover re-queues and
// terminal results all flow through here. The record is appended and
// materialized under the store lock (LSN order therefore matches state
// order); the returned LSN is what WaitDurable takes. Implements
// fleet.JobStore.
func (s *Store) JournalFleetJob(j *fleet.Job) uint64 {
	body, err := json.Marshal(fleetJobRecord{SubmitUnixMs: j.SubmitUnixMs, Job: j})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// A job is plain data; a marshal failure is a bug, not an
		// operational condition. Count it and keep serving.
		s.dropped++
		if s.dropped == 1 {
			log.Printf("durable: dropping journal record: %v", err)
		}
		return s.w.lastLSNSnapshot()
	}
	if s.abandoned {
		return s.w.lastLSNSnapshot()
	}
	payload := make([]byte, 0, len(body)+1)
	payload = append(payload, recFleetJob)
	payload = append(payload, body...)
	s.fleetJobs[j.ID] = payload
	return s.w.append(payload)
}

// WaitDurable blocks until the record at lsn is on stable storage per the
// configured sync mode. The submission paths call it after releasing their
// scheduler lock and before acking the client.
func (s *Store) WaitDurable(lsn uint64) {
	if err := s.w.waitDurable(lsn); err != nil {
		log.Printf("durable: WAL write error; submissions are no longer durable: %v", err)
	}
}

// NoteRestore records what the scheduler did with the recovered jobs, for
// the admin endpoint and metrics.
func (s *Store) NoteRestore(terminal, requeued, expired int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restored.Terminal += terminal
	s.restored.Requeued += requeued
	s.restored.Expired += expired
}

// Compact quiesces the WAL, writes the materialized view as an atomic
// fsync'd snapshot, and deletes the sealed journal segments it supersedes.
// Journaling is blocked for the duration (one file write + three fsyncs);
// with compaction on a minutes cadence that pause is noise.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.abandoned {
		return fmt.Errorf("durable: store abandoned")
	}
	if err := s.w.syncAll(); err != nil {
		return fmt.Errorf("durable: pre-compaction sync: %w", err)
	}
	snapLSN := s.w.lastLSNSnapshot()
	sealed, err := s.w.rotate()
	if err != nil {
		return err
	}

	buf := appendFrame(nil, snapLSN, metaPayload(snapLSN))
	for _, payload := range s.fleetJobs {
		buf = appendFrame(buf, snapLSN, payload)
	}
	if err := writeFileDurable(s.dir, snapshotName, buf); err != nil {
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}

	// The snapshot now covers everything up to and including the sealed
	// segment; drop the journal prefix.
	seqs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq <= sealed {
			if err := os.Remove(filepath.Join(s.dir, segmentName(seq))); err != nil {
				return err
			}
		}
	}
	if err := fsyncDir(s.dir); err != nil {
		return err
	}
	s.snapshotLSN = snapLSN
	s.compactions++
	s.lastCompact = time.Now()
	return nil
}

func metaPayload(snapLSN uint64) []byte {
	body, err := json.Marshal(metaRecord{SnapshotLSN: snapLSN, SavedUnixMs: time.Now().UnixMilli()})
	if err != nil {
		panic(err) // static struct of integers cannot fail
	}
	return append([]byte{recMeta}, body...)
}

// writeFileDurable is the power-loss-safe file write: temp file in the same
// directory, fsync the file, atomic rename, fsync the directory.
func writeFileDurable(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return fsyncDir(dir)
}

// Abandon simulates kill -9 for the fault-scenario lab and crash tests:
// unflushed records are dropped, no final fsync happens, and every
// subsequent journal call is swallowed. The on-disk state is exactly what a
// SIGKILL at this instant would leave.
func (s *Store) Abandon() {
	s.mu.Lock()
	s.abandoned = true
	s.mu.Unlock()
	s.w.abandon()
}

// Close flushes and fsyncs the journal — graceful shutdown.
func (s *Store) Close() error {
	return s.w.close()
}

// Dir returns the data directory the store persists into.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots store health. The on-disk sizes are computed by scanning
// the data dir; callers are the admin endpoint and metrics scrapes, not hot
// paths.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Dir:            s.dir,
		SnapshotLSN:    s.snapshotLSN,
		Compactions:    s.compactions,
		LastCompaction: s.lastCompact,
		Replay:         s.replay,
		Restored:       s.restored,
	}
	s.mu.Unlock()

	s.w.mu.Lock()
	st.Mode = s.w.mode
	st.LastLSN = s.w.lastLSN
	st.Durable = s.w.durable
	st.Appends = s.w.appends
	st.Fsyncs = s.w.fsyncs
	st.Bytes = s.w.bytes
	s.w.mu.Unlock()

	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			info, ierr := e.Info()
			if ierr != nil {
				continue
			}
			if _, ok := parseSegmentName(e.Name()); ok {
				st.Segments++
				st.WALBytes += info.Size()
			} else if e.Name() == snapshotName {
				st.WALBytes += info.Size()
			}
		}
	}
	return st
}
