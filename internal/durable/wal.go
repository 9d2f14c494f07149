// Package durable is the crash-durable job store behind the fleet
// scheduler: an append-only write-ahead log of job-lifecycle records plus
// periodic snapshot compaction. Every transition the scheduler publishes is
// journaled: the submission as the job's whole record — request and
// Idempotency-Key binding included, the key is a field of the job — and each
// later one (claim, failover re-queue, restore, terminal) as an update of
// the fields a transition may change, so a job's request reaches the log
// once. Replay folds each update onto its job's record; a snapshot holds
// whole records, and a snapshot/journal overlap is harmless. The §4
// user request behind it — "more robust job restart tools after system
// outages" — needs submission durability above all: Submit acks only after
// the job's first record is fsync'd (see WaitDurable), so a 202 implies the
// job survives kill -9.
package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SyncMode selects when appended records are fsync'd.
type SyncMode string

const (
	// SyncAlways returns from each append once the flusher has written
	// and fsync'd its record: strongest guarantee, one fsync per record.
	SyncAlways SyncMode = "always"
	// SyncGroup returns from append at once and lets the flusher fsync
	// once per batch (group commit): submissions still block in
	// WaitDurable until their record is durable, but concurrent
	// submitters share one fsync.
	SyncGroup SyncMode = "group"
	// SyncOff never fsyncs: append returns once the flusher has written
	// its record to the OS, so it survives process crashes, not power
	// loss.
	SyncOff SyncMode = "off"
)

// ParseSyncMode validates a -wal-sync flag value.
func ParseSyncMode(s string) (SyncMode, error) {
	switch SyncMode(s) {
	case SyncAlways, SyncGroup, SyncOff:
		return SyncMode(s), nil
	}
	return "", fmt.Errorf("durable: unknown WAL sync mode %q (want always, group, or off)", s)
}

// Record framing: [length uint32][crc32 uint32][lsn uint64][payload], all
// little-endian. The CRC covers lsn+payload, so a frame whose tail was torn
// by a crash — or whose header bytes survived but whose body did not — fails
// the checksum and replay stops cleanly at the previous record.
const (
	frameHeader   = 16
	maxFrameBytes = 64 << 20 // sanity bound; a corrupt length field cannot ask for GBs

	segmentPrefix = "journal-"
	segmentSuffix = ".wal"
	snapshotName  = "snapshot.wal"

	// maxSpareBytes bounds the buffers kept for reuse — the store's record
	// buffer and the flusher's batch — so one outsized record or burst
	// does not pin its size for the life of the store.
	maxSpareBytes = 1 << 20

	// The flusher grows the active segment by writing zeros ahead of its
	// frames, in steps that start at firstGrowth and double up to
	// maxGrowth, so a frame lands in blocks the file already has and its
	// sync commits no new size or extent.
	firstGrowth = 64 << 10
	maxGrowth   = 4 << 20
)

// zeroChunk is the source of the zeros a segment is grown by.
var zeroChunk [64 << 10]byte

func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// appendFrame encodes one record frame onto buf and returns the extended
// slice.
func appendFrame(buf []byte, lsn uint64, payload []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // the CRC, once lsn+payload are in place
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+8:]))
	return buf
}

// readFrames folds fn over every intact frame in data, stopping at the
// first short or corrupt one (the torn tail kill -9 leaves behind). It
// returns how many bytes of data were unreadable; 0 means the segment was
// clean. The zeros a segment was grown by are not damage: a segment ends
// cleanly where only zeros follow (no frame is all zero: the CRC of a zero
// LSN is not 0), and a torn frame followed by zeros counts the extent its
// length field declares.
func readFrames(data []byte, fn func(lsn uint64, payload []byte)) (skipped int64) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) < frameHeader {
			return damage(rest, len(rest))
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		if n < 0 || n > maxFrameBytes {
			return damage(rest, len(rest))
		}
		if len(rest) < frameHeader+n || crc32.ChecksumIEEE(rest[8:frameHeader+n]) != binary.LittleEndian.Uint32(rest[4:8]) {
			return damage(rest, min(frameHeader+n, len(rest)))
		}
		fn(binary.LittleEndian.Uint64(rest[8:16]), rest[frameHeader:frameHeader+n])
		off += frameHeader + n
	}
}

// damage is how many bytes of rest, the unreadable tail of a segment whose
// first frame spans rest[:extent], are damage: none if rest is all zero,
// the frame's extent if only zeros follow it, all of rest otherwise.
func damage(rest []byte, extent int) int64 {
	switch {
	case !allZero(rest[extent:]):
		return int64(len(rest))
	case allZero(rest[:extent]):
		return 0
	}
	return int64(extent)
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroChunk))
		if !bytes.Equal(b[:n], zeroChunk[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// fsyncDir flushes a directory's entry table so a just-created, renamed, or
// deleted file survives power loss: rename is atomic against torn writes
// but not durable until the directory itself is synced. It is a variable so
// that a test can see which directory syncs happen.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// wal is the append-only journal: one active segment file, an in-memory
// frame buffer, and a durability watermark that WaitDurable blocks on.
// While the WAL is open the flusher goroutine is the segment's one writer,
// in every sync mode, and the only code that advances the watermark.
type wal struct {
	dir  string
	mode SyncMode

	mu   sync.Mutex
	cond *sync.Cond // broadcasts appends, durable-watermark advances and state flips

	f         *os.File
	seq       uint64 // active segment sequence number
	off       int64  // where the flusher writes the segment's next frame
	size      int64  // how far the segment has been grown by zeros
	step      int64  // the segment's next growth step
	buf       []byte // frames appended but not yet handed to the OS
	spare     []byte // the flusher's last written batch, reused as the next buf
	lastLSN   uint64 // last assigned LSN
	durable   uint64 // highest LSN guaranteed on stable storage
	abandoned bool   // simulated kill -9: unflushed buffer dropped
	closed    bool
	err       error // sticky first write/sync error

	appends uint64
	fsyncs  uint64
	bytes   uint64

	flusherWG sync.WaitGroup
}

// openWAL creates segment nextSeq as the active one and starts the
// flusher.
func openWAL(dir string, mode SyncMode, nextSeq, lastLSN uint64) (*wal, error) {
	w := &wal{dir: dir, mode: mode, lastLSN: lastLSN, durable: lastLSN}
	if err := w.createSegment(nextSeq); err != nil {
		return nil, err
	}
	w.cond = sync.NewCond(&w.mu)
	w.flusherWG.Add(1)
	go w.flusher()
	return w, nil
}

// createSegment creates segment seq and makes it the active one, to be
// written from offset 0 and grown from the first step. It never appends to
// an old segment: a torn tail in segment k is harmless exactly because
// post-recovery records land in k+1. Under always and group it syncs the
// directory, so the segment's entry is on stable storage before any record
// in it is acked. Callers hold w.mu or have not shared w yet.
func (w *wal) createSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: creating WAL segment: %w", err)
	}
	if w.mode != SyncOff {
		if err := fsyncDir(w.dir); err != nil {
			f.Close()
			return fmt.Errorf("durable: syncing WAL dir: %w", err)
		}
	}
	w.f, w.seq, w.off, w.size, w.step = f, seq, 0, 0, firstGrowth
	return nil
}

// append journals one payload and returns its LSN. Under always and off it
// returns only once the flusher has written the record (and, under always,
// fsync'd it); under group it hands the record over and returns at once.
// Appends on an abandoned or closed WAL are swallowed (the process is
// "dead"); the returned LSN is then the last assigned one, and WaitDurable
// on it returns immediately.
func (w *wal) append(payload []byte) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.abandoned || w.closed || w.err != nil {
		return w.lastLSN
	}
	w.lastLSN++
	lsn := w.lastLSN
	w.buf = appendFrame(w.buf, lsn, payload)
	w.appends++
	w.cond.Broadcast()
	if w.mode != SyncGroup {
		w.waitLocked(lsn)
	}
	return lsn
}

// flusher is the group-commit loop: it swaps the pending buffer out under
// the lock and writes it outside it (appenders keep queuing frames
// meanwhile — that batching is the group commit): it grows the segment by
// zeros when the batch would pass its end, writes the batch at its own
// offset, fsyncs, and publishes the new durable watermark. Under off it
// skips the fsync. Once the WAL is closed it drains the buffer before it
// exits.
func (w *wal) flusher() {
	defer w.flusherWG.Done()
	w.mu.Lock()
	for {
		for !w.closed && !w.abandoned && w.err == nil && len(w.buf) == 0 {
			w.cond.Wait()
		}
		if w.abandoned || w.err != nil || (w.closed && len(w.buf) == 0) {
			w.mu.Unlock()
			return
		}
		batch := w.buf
		w.buf, w.spare = w.spare[:0], nil
		upto := w.lastLSN
		f, off, size, step := w.f, w.off, w.size, w.step
		w.mu.Unlock()

		grown := size
		for grown < off+int64(len(batch)) {
			grown += step
			step = min(2*step, maxGrowth)
		}
		var err error
		for size < grown && err == nil {
			var n int
			n, err = f.WriteAt(zeroChunk[:min(grown-size, int64(len(zeroChunk)))], size)
			size += int64(n)
		}
		n := 0
		if err == nil {
			n, err = f.WriteAt(batch, off)
		}
		synced := w.mode != SyncOff && err == nil
		if synced {
			err = f.Sync()
		}

		w.mu.Lock()
		if cap(batch) <= maxSpareBytes {
			w.spare = batch // appenders fill one buffer while the other is written
		}
		w.off, w.size, w.step = off+int64(n), size, step
		w.bytes += uint64(n)
		if synced {
			w.fsyncs++
		}
		switch {
		case err != nil:
			if w.err == nil {
				w.err = err
			}
		case upto > w.durable:
			w.durable = upto
		}
		w.cond.Broadcast()
	}
}

// lastLSNSnapshot returns the most recently assigned LSN.
func (w *wal) lastLSNSnapshot() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN
}

// waitDurable blocks until lsn is on stable storage (or the WAL died). It
// returns the sticky error so the submission path can refuse to ack a job
// whose record never made it down.
func (w *wal) waitDurable(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.waitLocked(lsn)
}

// waitLocked is waitDurable with w.mu held.
func (w *wal) waitLocked(lsn uint64) error {
	for w.durable < lsn && !w.abandoned && !w.closed && w.err == nil {
		w.cond.Wait()
	}
	return w.err
}

// rotate seals the active segment and opens the next one, returning the
// sealed segment's sequence number. Callers must have quiesced the WAL
// (waited on its last LSN, with no append in between) first so no flusher
// write is in flight against the old file.
func (w *wal) rotate() (sealed uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.abandoned || w.closed {
		return w.seq, fmt.Errorf("durable: WAL is closed")
	}
	sealed = w.seq
	if cerr := w.f.Close(); cerr != nil && w.err == nil {
		w.err = cerr
	}
	if err := w.createSegment(sealed + 1); err != nil {
		w.err = err
		return sealed, err
	}
	return sealed, nil
}

// abandon simulates kill -9: the unflushed buffer is dropped on the floor,
// no final fsync happens, and every waiter is released. What was already
// handed to the OS stays readable on replay — exactly the state a real
// SIGKILL leaves behind (minus the page cache, which the torn-tail
// truncation tests cover byte by byte).
func (w *wal) abandon() {
	w.mu.Lock()
	if w.abandoned || w.closed {
		w.mu.Unlock()
		return
	}
	w.abandoned = true
	w.buf = nil
	w.cond.Broadcast()
	w.mu.Unlock()
	w.flusherWG.Wait()
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
}

// close lets the flusher drain the buffer, then fsyncs and closes the active
// segment — graceful shutdown.
func (w *wal) close() error {
	w.mu.Lock()
	if w.abandoned || w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	w.flusherWG.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err == nil {
		w.fsyncs++
	} else if w.err == nil {
		w.err = err
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// listSegments returns the journal segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}
