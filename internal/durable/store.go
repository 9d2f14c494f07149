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

// Recovery is the last record of each job Open folded from snapshot + WAL,
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
	Bytes    uint64 // journal frame bytes written since open
	Segments int    // journal segment files on disk
	WALBytes int64  // journal + snapshot bytes on disk, the zeros segments are grown by included

	SnapshotLSN    uint64
	Compactions    uint64
	LastCompaction time.Time

	Replay ReplayStats
}

// Store is the crash-durable job store: a WAL of each job's submission
// record and the updates of its later transitions, which periodic
// compaction folds into a snapshot of whole records. The log is the store's
// only copy of a job — once a record is appended it costs no memory here —
// and Open and Compact read it back through the one fold. One Store serves
// one fleet scheduler.
type Store struct {
	dir string
	w   *wal

	compactMu sync.Mutex // one Compact at a time; Abandon waits for it

	mu          sync.Mutex
	enc         []byte // the payload being journaled, reused record to record
	snapshotLSN uint64
	compactions uint64
	lastCompact time.Time
	replay      ReplayStats
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
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: listing WAL segments: %w", err)
	}
	jobs, lastLSN, stats, err := fold(dir, seqs)
	if err != nil {
		return nil, nil, err
	}
	stats.Duration = time.Since(start)
	stats.DurationMs = float64(stats.Duration.Microseconds()) / 1000

	var maxSeq uint64
	if len(seqs) > 0 {
		maxSeq = seqs[len(seqs)-1]
	}
	w, err := openWAL(dir, mode, maxSeq+1, lastLSN)
	if err != nil {
		return nil, nil, err
	}
	rec := &Recovery{Stats: stats, FleetJobs: make([]*fleet.Job, 0, len(jobs))}
	for _, j := range jobs {
		rec.FleetJobs = append(rec.FleetJobs, j)
	}
	return &Store{dir: dir, w: w, snapshotLSN: stats.SnapshotLSN, replay: stats}, rec, nil
}

// fold replays snapshot.wal and then the journal segments seqs, in order,
// into the current state of each job, the highest LSN and the replay
// counts: an 'F' record replaces its job whole, and a 'U' record overlays
// the fields it holds (fleetJobUpdate) onto the job folded so far — an
// update whose job has no record yet is skipped. It is the one reading of
// the log: Open hands its jobs to the scheduler and Compact writes them
// back as the next snapshot, so the legacy upgrades below reach disk at the
// first compaction. Unknown kinds and undecodable bodies are skipped —
// replay never errors on record content, only framing decides where a
// segment ends. Legacy 'I' bindings are applied after the last segment:
// later 'F' records of the same job, written before jobs carried their key,
// would otherwise overwrite them.
func fold(dir string, seqs []uint64) (jobs map[int]*fleet.Job, lastLSN uint64, stats ReplayStats, err error) {
	jobs, stats.Segments = make(map[int]*fleet.Job), len(seqs)
	legacyIdem := make(map[int]string) // job ID -> key, from 'I' records
	apply := func(lsn uint64, payload []byte) {
		lastLSN = max(lastLSN, lsn)
		stats.Records++
		if len(payload) == 0 {
			return
		}
		body := payload[1:]
		switch payload[0] {
		case recLegacyQRMJob:
			// Upgrade path: a data dir written by a single-device daemon
			// holds 'Q' records. Each folds as the equivalent fleet record
			// under its original ID, so Restore re-queues it.
			if r, ok := legacyFleetJob(body); ok {
				r.Job.SubmitUnixMs = r.SubmitUnixMs
				jobs[r.Job.ID] = r.Job
			}
		case recFleetJob:
			var r fleetJobRecord
			if json.Unmarshal(body, &r) == nil && r.Job != nil {
				r.Job.SubmitUnixMs = r.SubmitUnixMs
				jobs[r.Job.ID] = r.Job
			}
		case recFleetUpdate:
			var u fleetJobUpdate
			if json.Unmarshal(body, &u) == nil && jobs[u.ID] != nil {
				u.apply(jobs[u.ID])
			}
		case recLegacyIdem:
			if r, ok := legacyIdemRecord(body); ok {
				legacyIdem[r.JobID] = r.Key
			}
		case recMeta:
			var r metaRecord
			if json.Unmarshal(body, &r) == nil {
				stats.SnapshotLSN = max(stats.SnapshotLSN, r.SnapshotLSN)
			}
		}
	}
	if data, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		stats.SkippedBytes += readFrames(data, apply)
	} else if !os.IsNotExist(err) {
		return nil, 0, stats, fmt.Errorf("durable: reading snapshot: %w", err)
	}
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return nil, 0, stats, fmt.Errorf("durable: reading WAL segment %d: %w", seq, err)
		}
		stats.SkippedBytes += readFrames(data, apply)
	}
	for id, key := range legacyIdem {
		if j := jobs[id]; j != nil && j.IdemKey == "" {
			j.IdemKey = key
		}
	}
	return jobs, lastLSN, stats, nil
}

// JournalFleetJob journals a fleet job's whole record — the scheduler
// journals a submission this way, request and Idempotency-Key binding
// included. The record is appended under the store lock (LSN order
// therefore matches state order); the returned LSN is what WaitDurable
// takes. Implements fleet.JobStore.
func (s *Store) JournalFleetJob(j *fleet.Job) uint64 {
	return s.journal(j, appendJobRecord)
}

// JournalFleetUpdate journals a transition after the submission — a claim,
// a failover re-queue, a restore, a terminal result — as an update of the
// fields it may change (fleetJobUpdate), with result, the scheduler's
// rendering of j.Result, spliced in; replay overlays it onto the job's
// record. Implements fleet.JobStore.
func (s *Store) JournalFleetUpdate(j *fleet.Job, result []byte) uint64 {
	return s.journal(j, func(b []byte, j *fleet.Job) ([]byte, error) {
		return appendUpdateRecord(b, j, result)
	})
}

// journal encodes j's record into the store's buffer and appends it.
func (s *Store) journal(j *fleet.Job, encode func([]byte, *fleet.Job) ([]byte, error)) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload, err := encode(s.enc[:0], j)
	if err != nil {
		// Admission refuses the values JSON cannot spell, so a failure is
		// a bug, not an operational condition. Count it and keep serving.
		s.dropped++
		if s.dropped == 1 {
			log.Printf("durable: dropping journal record of job %d: %v", j.ID, err)
		}
		return s.w.lastLSNSnapshot()
	}
	if cap(payload) <= maxSpareBytes {
		s.enc = payload
	}
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

// Compact folds the log into a fresh snapshot and deletes the journal
// segments it supersedes. Journaling is blocked only while the WAL is
// synced and its active segment sealed; the fold of the snapshot and the
// sealed segments, the snapshot write and its fsyncs run without the store
// lock, from disk.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	snapLSN, sealed, err := s.seal()
	if err != nil {
		return err
	}
	seqs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for len(seqs) > 0 && seqs[len(seqs)-1] > sealed {
		seqs = seqs[:len(seqs)-1]
	}
	jobs, _, _, err := fold(s.dir, seqs)
	if err != nil {
		return err
	}
	payload := appendMetaRecord(nil, metaRecord{SnapshotLSN: snapLSN, SavedUnixMs: time.Now().UnixMilli()})
	buf := appendFrame(nil, snapLSN, payload)
	for _, j := range jobs {
		if payload, err = appendJobRecord(payload[:0], j); err != nil {
			return fmt.Errorf("durable: compacting job %d: %w", j.ID, err)
		}
		buf = appendFrame(buf, snapLSN, payload)
	}
	if err := writeFileDurable(s.dir, snapshotName, buf); err != nil {
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}

	// The snapshot now covers everything up to and including the sealed
	// segment; drop the journal prefix.
	for _, seq := range seqs {
		if err := os.Remove(filepath.Join(s.dir, segmentName(seq))); err != nil {
			return err
		}
	}
	if err := fsyncDir(s.dir); err != nil {
		return err
	}
	s.mu.Lock()
	s.snapshotLSN = snapLSN
	s.compactions++
	s.lastCompact = time.Now()
	s.mu.Unlock()
	return nil
}

// seal is the part of Compact that holds the store lock: it waits until
// the WAL's last record is on stable storage and rotates the active
// segment, so every record up to snapLSN sits in a segment numbered at most
// sealed. An abandoned WAL refuses the rotation.
func (s *Store) seal() (snapLSN, sealed uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snapLSN = s.w.lastLSNSnapshot()
	if err := s.w.waitDurable(snapLSN); err != nil {
		return 0, 0, fmt.Errorf("durable: pre-compaction sync: %w", err)
	}
	sealed, err = s.w.rotate()
	return snapLSN, sealed, err
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
// subsequent journal call is swallowed. A Compact in flight finishes first,
// so nothing reaches disk once Abandon returns. The on-disk state is
// exactly what a SIGKILL at this instant would leave.
func (s *Store) Abandon() {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
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
