// Package journal is thermherdd's crash-safe write-ahead log for job
// lifecycle events. Every accepted job and its terminal transition
// (completed, failed, canceled, migrated) are each appended as one
// framed record, the acceptance before the daemon acknowledges it, so
// a crash — a kill -9, an OOM, a chaos-layer panic that slips past
// recovery — loses no acknowledged work: on restart the server replays
// the journal, rebuilds its job table, and re-enqueues whatever was
// accepted but never finished.
//
// # Record format
//
// The log is a flat sequence of frames:
//
//	| length (4B LE) | crc32 (4B LE, IEEE, over payload) | payload |
//
// where payload is one JSON-encoded Event. The frame is
// self-delimiting and self-validating: recovery scans frames in order
// and stops at the first torn or corrupt one (short header, length
// past EOF, implausible length, or CRC mismatch), truncating the file
// there. A torn tail is the expected crash artifact — the tail record
// was never acknowledged (the append that wrote it did not return), so
// dropping it breaks no promise.
//
// # Fsync policy
//
// Durability of the acknowledgment is governed by the fsync policy:
// FsyncAlways syncs after every append (an acked job survives power
// loss), FsyncOff leaves flushing to the OS (process crashes lose
// nothing, power loss may lose recent acks).
//
// # Snapshot compaction
//
// The log would otherwise grow forever, so the server periodically
// folds its whole job table into a snapshot file (one framed record in
// snapshot.db, written to a temp file, fsynced, and renamed) and
// truncates the WAL. Recovery loads the snapshot first, then replays
// the WAL's events over it; because event application is idempotent, a
// crash between the snapshot rename and the WAL truncation only
// replays events the snapshot already contains. A clean shutdown
// writes a final snapshot with Clean set, so the common restart path
// replays zero records.
//
// Named fault points (FaultAppend, FaultFsync, FaultSnapshot) sit on
// the fs seam so chaos tests can inject short writes and fsync errors
// deterministically; an injected append failure really does write a
// torn half-frame before erroring, exercising the same restore path a
// short write would. A failed append restores the last good frame
// boundary (truncate + seek back) before returning, so the journal
// keeps accepting appends afterwards and events acknowledged after a
// transient failure are never stranded behind a torn frame; only if
// that restore itself fails does the journal seal itself and refuse
// further appends.
//
//thermlint:goroutines
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"thermalherd/internal/faultinject"
)

// Fault points on the journal's fs seam; arm them on the registry
// passed via Options.Faults. All are no-ops when the registry is nil
// or disarmed.
//
//thermlint:faultpoints
const (
	// FaultAppend fires before a WAL append: an error action fails the
	// append after writing only half the frame, exercising the
	// torn-write restore path a short write or ENOSPC would take.
	FaultAppend = "journal.append"
	// FaultFsync fires before an fsync: an error action surfaces as a
	// failed append under FsyncAlways (the ack is withheld and the
	// unsynced frame rolled back).
	FaultFsync = "journal.fsync"
	// FaultSnapshot fires before a snapshot write: an error action
	// aborts compaction, leaving the WAL intact.
	FaultSnapshot = "journal.snapshot"
)

// EventType enumerates the journaled job-lifecycle transitions.
type EventType string

const (
	// EventAccepted records a job entering the queue (or completing
	// immediately from the result cache); it carries the full spec so
	// replay can re-enqueue the job.
	EventAccepted EventType = "accepted"
	// EventStarted is a legacy record that older binaries journaled
	// when a worker picked a job up. Nothing writes it now (terminal
	// events carry Started instead); replay keeps only its timestamp.
	EventStarted EventType = "started"
	// EventCompleted records successful completion, carrying the result
	// so the job table and result cache survive a restart.
	EventCompleted EventType = "completed"
	// EventFailed and EventCanceled record the failure-side terminal
	// states.
	EventFailed   EventType = "failed"
	EventCanceled EventType = "canceled"
	// EventMigrated records a queued job handed off to another backend
	// (proactive drain herding): terminal locally, with MigratedTo
	// naming the node that adopted it.
	EventMigrated EventType = "migrated"
)

// Event is one journaled lifecycle transition. Accepted events carry
// the job's identity (spec, cache key, idempotency key); terminal
// events carry the outcome.
type Event struct {
	Type EventType `json:"t"`
	ID   string    `json:"id"`
	// Spec, Key, and IdemKey are set on accepted events.
	Spec    json.RawMessage `json:"spec,omitempty"`
	Key     string          `json:"key,omitempty"`
	IdemKey string          `json:"idem,omitempty"`
	// Tenant attributes accepted events to the submitting tenant so
	// replay can rebuild per-tenant accounting. Optional: events from
	// journals written before multi-tenancy simply have none.
	Tenant string `json:"tenant,omitempty"`
	// Result is set on completed events; FromCache marks completions
	// answered from the result cache at admission.
	Result    json.RawMessage `json:"result,omitempty"`
	FromCache bool            `json:"from_cache,omitempty"`
	// Error is set on failed and canceled events.
	Error string `json:"err,omitempty"`
	// MigratedTo is set on migrated events: the node that adopted the
	// job.
	MigratedTo string `json:"migrated_to,omitempty"`
	// Started is set on terminal events of jobs that ran (or were
	// answered from cache): the RFC3339Nano time the job started, so a
	// restored job keeps its started_at.
	Started string `json:"started,omitempty"`
	// At is the transition's RFC3339Nano timestamp.
	At string `json:"at,omitempty"`
}

// JobRecord is one job's full state inside a Snapshot.
type JobRecord struct {
	ID         string          `json:"id"`
	Spec       json.RawMessage `json:"spec"`
	Key        string          `json:"key"`
	IdemKey    string          `json:"idem,omitempty"`
	Tenant     string          `json:"tenant,omitempty"`
	State      string          `json:"state"`
	Error      string          `json:"err,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	FromCache  bool            `json:"from_cache,omitempty"`
	MigratedTo string          `json:"migrated_to,omitempty"`
	Submitted  string          `json:"submitted,omitempty"`
	Started    string          `json:"started,omitempty"`
	Finished   string          `json:"finished,omitempty"`
}

// Snapshot is the compacted job table written at compaction points and
// on clean shutdown.
type Snapshot struct {
	// Clean marks a snapshot written by a graceful drain: every job is
	// terminal and the WAL behind it is empty.
	Clean bool        `json:"clean"`
	Jobs  []JobRecord `json:"jobs"`
}

// FsyncPolicy selects when appends reach stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every append; an acknowledged job
	// survives power loss.
	FsyncAlways FsyncPolicy = "always"
	// FsyncOff never syncs explicitly; process crashes lose nothing
	// (the OS holds the pages), power loss may lose recent acks.
	FsyncOff FsyncPolicy = "off"
)

// ParseFsyncPolicy validates a policy string (the -fsync flag).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncOff:
		return FsyncPolicy(s), nil
	case "":
		return FsyncAlways, nil
	}
	return "", fmt.Errorf("journal: unknown fsync policy %q (want always or off)", s)
}

// Options configures Open.
type Options struct {
	// Dir holds the WAL (wal.log) and snapshot (snapshot.db) files; it
	// is created if missing.
	Dir string
	// Fsync is the append durability policy; empty means FsyncAlways.
	Fsync FsyncPolicy
	// CompactBytes is the WAL size past which ShouldCompact reports
	// true; 0 means 4 MiB.
	CompactBytes int64
	// Faults is the chaos-testing fault-injection registry (may be nil).
	Faults *faultinject.Registry
}

// Replay is what Open recovered from disk: the last snapshot (if any)
// and the WAL events appended after it, in order.
type Replay struct {
	// Snapshot is the compacted base state, nil when none was found
	// (or the snapshot file was itself corrupt).
	Snapshot *Snapshot
	// Events are the valid WAL records after the snapshot.
	Events []Event
	// TruncatedRecords counts torn or corrupt tails dropped during the
	// scan (at most one per recovery: the scan stops at the first).
	TruncatedRecords int
	// SnapshotCorrupt notes that a snapshot file existed but failed
	// validation and was ignored.
	SnapshotCorrupt bool
	// CleanClose reports a graceful-shutdown artifact: a Clean snapshot
	// with zero WAL events behind it.
	CleanClose bool
}

// Stats counts a journal's I/O since Open.
type Stats struct {
	Appends uint64
	Fsyncs  uint64
}

const (
	walName      = "wal.log"
	snapshotName = "snapshot.db"
	frameHeader  = 8 // 4B length + 4B CRC32
	// maxRecord bounds a single frame's payload; a length beyond it is
	// treated as corruption rather than an allocation request.
	maxRecord = 64 << 20
)

// Journal is an open write-ahead log. Methods are safe for concurrent
// use.
type Journal struct {
	opts Options
	dir  string

	mu      sync.Mutex
	f       *os.File
	size    int64
	appends uint64
	fsyncs  uint64
	// broken seals the journal after a failed append whose frame-boundary
	// restore also failed: the WAL tail is torn and cannot be repaired,
	// so accepting more appends would strand every later event behind
	// the torn frame on recovery. Cleared when a compaction empties the
	// WAL.
	broken error
}

// Open recovers the journal in opts.Dir and returns it ready for
// appends, along with everything it replayed. The WAL is truncated at
// the first torn or corrupt record so subsequent appends start from a
// clean frame boundary.
func Open(opts Options) (*Journal, *Replay, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("journal: Options.Dir is required")
	}
	if opts.Fsync == "" {
		opts.Fsync = FsyncAlways
	}
	if _, err := ParseFsyncPolicy(string(opts.Fsync)); err != nil {
		return nil, nil, err
	}
	if opts.CompactBytes <= 0 {
		opts.CompactBytes = 4 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}

	rep := &Replay{}
	rep.Snapshot, rep.SnapshotCorrupt = readSnapshot(filepath.Join(opts.Dir, snapshotName))

	walPath := filepath.Join(opts.Dir, walName)
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	events, good, torn, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: scanning %s: %w", walPath, err)
	}
	if torn {
		rep.TruncatedRecords = 1
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail of %s: %w", walPath, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	rep.Events = events
	rep.CleanClose = rep.Snapshot != nil && rep.Snapshot.Clean && len(events) == 0

	return &Journal{opts: opts, dir: opts.Dir, f: f, size: good}, rep, nil
}

// scanWAL reads frames from the start of f, returning the decoded
// events, the offset of the last fully valid frame, and whether a torn
// or corrupt tail was found. I/O errors other than EOF abort the scan.
func scanWAL(f *os.File) (events []Event, good int64, torn bool, err error) {
	r := io.Reader(f)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, false, err
	}
	var header [frameHeader]byte
	for {
		n, err := io.ReadFull(r, header[:])
		if err == io.EOF {
			return events, good, false, nil // clean end on a frame boundary
		}
		if err == io.ErrUnexpectedEOF || (err == nil && n < frameHeader) {
			return events, good, true, nil // torn header
		}
		if err != nil {
			return nil, 0, false, err
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > maxRecord {
			return events, good, true, nil // implausible length: corrupt
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return events, good, true, nil // torn payload
			}
			return nil, 0, false, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return events, good, true, nil // corrupt payload
		}
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return events, good, true, nil // CRC-valid but undecodable: corrupt
		}
		events = append(events, ev)
		good += int64(frameHeader) + int64(length)
	}
}

// readSnapshot loads and validates the snapshot file. A missing file
// returns (nil, false); an unreadable or corrupt one returns
// (nil, true) — recovery then falls back to the WAL alone.
func readSnapshot(path string) (*Snapshot, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, !os.IsNotExist(err)
	}
	if len(b) < frameHeader {
		return nil, true
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if int64(length) != int64(len(b)-frameHeader) || crc32.ChecksumIEEE(b[frameHeader:]) != sum {
		return nil, true
	}
	var snap Snapshot
	if err := json.Unmarshal(b[frameHeader:], &snap); err != nil {
		return nil, true
	}
	return &snap, false
}

// EncodeFrames renders events as a concatenation of CRC-framed,
// length-prefixed records — the WAL's exact on-disk format, reused as
// the replication stream's wire format so a replica file is
// byte-compatible with a WAL segment.
func EncodeFrames(events []Event) ([]byte, error) {
	var out []byte
	for _, ev := range events {
		payload, err := json.Marshal(ev)
		if err != nil {
			return nil, fmt.Errorf("journal: encoding event: %w", err)
		}
		out = append(out, frame(payload)...)
	}
	return out, nil
}

// DecodeFrames parses a concatenation of CRC-framed records (the
// EncodeFrames / WAL format). torn reports a truncated or corrupt tail;
// the events decoded before it are still returned, mirroring WAL
// recovery's stop-at-first-bad-frame rule.
func DecodeFrames(b []byte) (events []Event, torn bool) {
	for len(b) > 0 {
		if len(b) < frameHeader {
			return events, true
		}
		length := binary.LittleEndian.Uint32(b[0:4])
		sum := binary.LittleEndian.Uint32(b[4:8])
		if length == 0 || length > maxRecord || int64(length) > int64(len(b)-frameHeader) {
			return events, true
		}
		payload := b[frameHeader : frameHeader+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			return events, true
		}
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return events, true
		}
		events = append(events, ev)
		b = b[frameHeader+int(length):]
	}
	return events, false
}

// frame renders one CRC32-framed, length-prefixed record.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeader:], payload)
	return buf
}

// Append journals one event under the configured fsync policy. When it
// returns nil the event is recorded (durably so under FsyncAlways);
// when it returns an error the event is not in the WAL and the caller
// must not acknowledge the transition. A failed write or fsync
// restores the last good frame boundary (truncate + seek back over the
// torn or unsynced frame) before returning, so later appends land on a
// clean boundary and a replay never finds a record its caller was told
// failed; if the restore itself fails the journal seals and every
// later Append errors rather than silently stranding acked events
// behind a torn frame.
func (j *Journal) Append(ev Event) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("journal: encoding event: %w", err)
	}
	buf := frame(payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return j.broken
	}
	prev := j.size
	if ferr := j.opts.Faults.Fire(FaultAppend); ferr != nil {
		// Simulate the disk state an interrupted write leaves behind —
		// half a frame — then take the same restore path a real short
		// write would.
		n, _ := j.f.Write(buf[:len(buf)/2])
		j.size += int64(n)
		j.restoreTailLocked(prev)
		return ferr
	}
	n, err := j.f.Write(buf)
	j.size += int64(n)
	if err != nil {
		err = fmt.Errorf("journal: append: %w", err)
	} else if j.opts.Fsync != FsyncOff {
		err = j.syncLocked()
	}
	if err != nil {
		j.restoreTailLocked(prev)
		return err
	}
	j.appends++
	return nil
}

// restoreTailLocked rolls the WAL back to the frame boundary at prev
// after a failed append, so the torn half-frame never sits in front of
// later events. If the rollback itself fails, the journal is sealed:
// accepting more appends past an unrepaired torn frame would drop
// every one of them at the next recovery. Caller holds j.mu.
func (j *Journal) restoreTailLocked(prev int64) {
	if err := j.f.Truncate(prev); err != nil {
		j.broken = fmt.Errorf("journal: sealed: torn tail at offset %d could not be truncated: %w", prev, err)
		return
	}
	if _, err := j.f.Seek(prev, io.SeekStart); err != nil {
		j.broken = fmt.Errorf("journal: sealed: could not seek back to frame boundary %d: %w", prev, err)
		return
	}
	j.size = prev
}

// syncLocked flushes the WAL to stable storage. Caller holds j.mu.
func (j *Journal) syncLocked() error {
	if ferr := j.opts.Faults.Fire(FaultFsync); ferr != nil {
		return ferr
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.fsyncs++
	return nil
}

// Sync forces an fsync regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

// ShouldCompact reports whether the WAL has outgrown the compaction
// threshold; the server answers by folding its job table into
// WriteSnapshot.
func (j *Journal) ShouldCompact() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size >= j.opts.CompactBytes
}

// WriteSnapshot atomically replaces the snapshot file with snap and
// truncates the WAL behind it. Use Compact when the state being
// snapshotted can change concurrently with appends — WriteSnapshot
// takes snap as already captured, so it is only race-free when the
// caller knows no append can land between capturing snap and calling
// it (boot, drain, tests).
func (j *Journal) WriteSnapshot(snap Snapshot) error {
	return j.Compact(func() Snapshot { return snap })
}

// Compact folds capture()'s state into the snapshot file and truncates
// the WAL behind it, holding the journal lock across the whole
// sequence so no Append can land between the state capture and the WAL
// truncation — an event is always covered by either the snapshot or
// the surviving WAL, never lost to the gap. capture must not call back
// into the Journal. Ordering makes the pair crash-safe: the snapshot
// lands (temp file, fsync, rename) before the WAL is cut, so a crash
// between the two replays snapshot-covered events, which application
// handles idempotently.
func (j *Journal) Compact(capture func() Snapshot) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ferr := j.opts.Faults.Fire(FaultSnapshot); ferr != nil {
		return ferr
	}
	payload, err := json.Marshal(capture())
	if err != nil {
		return fmt.Errorf("journal: encoding snapshot: %w", err)
	}
	buf := frame(payload)
	path := filepath.Join(j.dir, snapshotName)
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if _, err := tf.Write(buf); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot write: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot fsync: %w", err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot rename: %w", err)
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: truncating WAL after snapshot: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.size = 0
	// The WAL is empty again: whatever torn tail sealed the journal is
	// gone, so appends may resume.
	j.broken = nil
	return nil
}

// Reset discards all persisted state (the -no-recover path): the WAL
// is truncated and the snapshot removed.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: reset: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.size = 0
	j.broken = nil
	if err := os.Remove(filepath.Join(j.dir, snapshotName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: reset: %w", err)
	}
	return nil
}

// Stats returns append/fsync counts since Open.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{Appends: j.appends, Fsyncs: j.fsyncs}
}

// Size returns the WAL's current byte length.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Close syncs and closes the WAL file. It does not write a snapshot;
// a graceful shutdown calls WriteSnapshot first.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return fmt.Errorf("journal: close sync: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("journal: close: %w", cerr)
	}
	return nil
}
