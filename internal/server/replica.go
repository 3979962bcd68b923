package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"thermalherd/internal/httpjson"
	"thermalherd/internal/journal"
)

// This file is the herd-failover surface of the server: the replica
// store holds peers' streamed journal records (POST /v1/replica/{origin}),
// adoption replays them into the live job table under the "<id>@<origin>"
// alias namespace (POST /v1/replica/{origin}/adopt), and migration is
// the proactive inverse — a draining node herds its queued jobs to the
// successor before exiting (POST /v1/migrate).

// replicaStore buffers peers' streamed journal events until adoption.
// With a journal directory it is file-backed (replica-<origin>.log,
// the journal's own CRC frame format), so a successor's copy of its
// peers' records survives the successor's own restart; without one it
// is memory-only — the same durability the node's own jobs get.
type replicaStore struct {
	mu     sync.Mutex
	dir    string
	events map[string][]journal.Event
	recv   uint64
}

// newReplicaStore loads any replica files already in dir (tolerating a
// torn tail exactly like WAL replay does); noRecover discards them
// instead, mirroring the journal's own -no-recover semantics.
func newReplicaStore(dir string, noRecover bool) *replicaStore {
	rs := &replicaStore{dir: dir, events: make(map[string][]journal.Event)}
	if dir == "" {
		return rs
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return rs // journal.Open created dir; unreadable means no replicas
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "replica-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		path := filepath.Join(dir, name)
		if noRecover {
			os.Remove(path)
			continue
		}
		origin, err := url.PathUnescape(strings.TrimSuffix(strings.TrimPrefix(name, "replica-"), ".log"))
		if err != nil || origin == "" {
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if events, _ := journal.DecodeFrames(b); len(events) > 0 {
			rs.events[origin] = events
		}
	}
	return rs
}

func (rs *replicaStore) path(origin string) string {
	return filepath.Join(rs.dir, "replica-"+url.PathEscape(origin)+".log")
}

// append stores one decoded batch, persisting the already-framed bytes
// verbatim when file-backed (the wire format IS the file format).
func (rs *replicaStore) append(origin string, events []journal.Event, frames []byte) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.dir != "" {
		f, err := os.OpenFile(rs.path(origin), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		_, werr := f.Write(frames)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}
	rs.events[origin] = append(rs.events[origin], events...)
	rs.recv += uint64(len(events))
	return nil
}

// take removes and returns everything buffered for origin; adoption is
// the only caller. The file is removed too — adopted jobs are now in
// the successor's own journal, which supersedes the replica copy.
func (rs *replicaStore) take(origin string) []journal.Event {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	events := rs.events[origin]
	delete(rs.events, origin)
	if rs.dir != "" {
		os.Remove(rs.path(origin))
	}
	return events
}

// receivedEvents counts events accepted into the store since boot.
func (rs *replicaStore) receivedEvents() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.recv
}

// handleReplicaAppend accepts one framed batch from a peer's streamer.
// A torn frame set is rejected whole (400) so the sender's error count
// reflects it; under the sync policy that withholds the peer's ack.
func (s *Server) handleReplicaAppend(w http.ResponseWriter, r *http.Request) {
	origin := r.PathValue("origin")
	if origin == "" {
		httpjson.Error(w, http.StatusBadRequest, "missing replica origin")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "reading replica body: %v", err)
		return
	}
	events, torn := journal.DecodeFrames(body)
	if torn {
		httpjson.Error(w, http.StatusBadRequest, "torn replica frame from %q", origin)
		return
	}
	if err := s.replica.append(origin, events, body); err != nil {
		httpjson.Error(w, http.StatusInternalServerError, "replica append: %v", err)
		return
	}
	httpjson.Write(w, http.StatusOK, map[string]any{"accepted": len(events)})
}

// handleReplicaAdopt replays replica records of origin into the live
// job table. With an empty body it adopts everything buffered for
// origin: the gateway calls it so on the successor after the takeover
// deadline (origin is dead). A draining origin's migration instead
// sends the held jobs' framed records as the body, and exactly those
// are adopted: the buffer also holds the records of jobs still running
// on origin, which must not run twice. Idempotent: re-adoption of
// already-known ids changes nothing, so a retried takeover or
// migration is safe.
func (s *Server) handleReplicaAdopt(w http.ResponseWriter, r *http.Request) {
	origin := r.PathValue("origin")
	if origin == "" {
		httpjson.Error(w, http.StatusBadRequest, "missing replica origin")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "reading adopt body: %v", err)
		return
	}
	events, torn := journal.DecodeFrames(body)
	if torn {
		httpjson.Error(w, http.StatusBadRequest, "torn migration frame from %q", origin)
		return
	}
	if s.draining.Load() {
		httpjson.Error(w, http.StatusServiceUnavailable, "server is draining; cannot adopt jobs")
		return
	}
	if len(body) == 0 {
		events = s.replica.take(origin)
	}
	adopted, aliased, requeued := s.adoptOrigin(origin, events)
	httpjson.Write(w, http.StatusOK, map[string]any{
		"origin":   origin,
		"adopted":  adopted,
		"aliased":  aliased,
		"requeued": requeued,
	})
}

// adoptOrigin folds origin's replica events into job records (the same
// fold crash recovery uses, so the successor's view agrees with what
// the dead peer would have recovered) and takes each one over under
// the "<id>@<origin>" namespace: records whose Idempotency-Key already
// maps to a local job only gain an alias (the dedup that keeps adopted
// work from double-executing); the rest are registered — and, when
// unfinished, re-enqueued — as this node's own jobs, counted through
// the same accounting identity as recovery. Admission controls
// (quotas, brownout) deliberately do not apply: these jobs were
// admitted fleet-wide already.
func (s *Server) adoptOrigin(origin string, events []journal.Event) (adopted, aliased, requeued int) {
	for _, rec := range foldEvents(nil, events) {
		localID := rec.ID + "@" + origin
		s.mu.Lock()
		_, known := s.jobs[localID]
		if !known {
			_, known = s.aliases[localID]
		}
		var existing string
		if !known && rec.IdemKey != "" {
			existing = s.idem[rec.IdemKey]
		}
		if !known && existing != "" {
			s.aliases[localID] = existing
		}
		s.mu.Unlock()
		if known {
			continue // re-adoption; already ours
		}
		if existing != "" {
			// Alias only: the original id keeps resolving, the work is
			// not re-registered. deduped attributes the absorption.
			s.metrics.inc(&s.metrics.deduped)
			s.aliasedJobs.Add(1)
			aliased++
			continue
		}
		rec.ID = localID
		j, err := newJobFromRecord(*rec, s.cfg.Clock)
		if err != nil {
			continue // undecodable record; drop rather than refuse the rest
		}
		j.markAdopted()
		s.adoptedJobs.Add(1)
		adopted++
		// Best-effort durability + onward chain replication: the adopted
		// job enters OUR journal (and streams to OUR successor) before it
		// can run and settle, so a second failure down the chain still
		// loses nothing acked. Registering first keeps the table ahead of
		// the journal for compaction.
		s.register(j, rec.IdemKey)
		s.logEvent(acceptedEvent(j, rec.IdemKey))
		if _, terminal := terminalEvents[State(rec.State)]; terminal {
			s.logEvent(j.terminalEvent())
		}
		if s.restore(j, rec) {
			requeued++
		}
	}
	if requeued > 0 {
		s.watchAdopted()
	}
	return adopted, aliased, requeued
}

// watchAdopted reports "recovering" on /readyz until the adopted
// frontier settles — every adopted job has reached a terminal state.
// The gateway treats recovering as non-routable, so a successor
// digesting a dead peer's backlog is ejected from new placements until
// it catches up. Single-flight: one watcher covers later adoptions
// too, since it re-scans the whole table each tick.
func (s *Server) watchAdopted() {
	if !s.adoptWatch.CompareAndSwap(false, true) {
		return
	}
	s.recovering.Store(true)
	// Deliberately NOT on s.wg: Drain waits on the worker pool, and this
	// watcher must be free to exit via watchdogStop after that wait.
	//thermlint:goroutine -- exits when the adopted frontier settles, or at drain via watchdogStop
	go func() {
		defer s.adoptWatch.Store(false)
		for {
			select {
			case <-s.watchdogStop:
				return
			case <-s.cfg.Clock.After(100 * time.Millisecond):
			}
			if !s.anyAdoptedPending() {
				s.recovering.Store(false)
				return
			}
		}
	}()
}

// anyAdoptedPending reports whether any adopted job is still queued or
// running.
func (s *Server) anyAdoptedPending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.adoptedPending() {
			return true
		}
	}
	return false
}

// migrateRequest is the POST /v1/migrate payload: the successor this
// node should herd its queued jobs to.
type migrateRequest struct {
	TargetName string `json:"target_name"`
	TargetURL  string `json:"target_url"`
}

// migrateClient ships migration batches; short timeout — the gateway
// retries a failed drain-migration, and the revert path below makes a
// failure loss-free.
var migrateClient = &http.Client{Timeout: 5 * time.Second}

// handleMigrate herds every still-queued job to the target node: each
// is held with the settle-once claim (a worker, cancel or drain that
// reaches it afterwards finds it no longer queued, while clients still
// see it queued), their acceptance records are shipped to the target
// and adopted there, and only then are they settled as
// migrated here. If the handoff fails every held job is released back
// to queued and runs locally — a failed migration degrades to a normal
// drain, it never loses a job, and no client ever saw it migrated.
// Jobs that slipped into running before the claim stay and finish here.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req migrateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "bad migrate payload: %v", err)
		return
	}
	if req.TargetName == "" || req.TargetURL == "" {
		httpjson.Error(w, http.StatusBadRequest, "migrate requires target_name and target_url")
		return
	}
	jobs, idemByID := s.sortedJobs()
	var held []*job
	var events []journal.Event
	now := s.cfg.Clock.Now().Format(time.RFC3339Nano)
	for _, j := range jobs {
		if j.claim(StateQueued, stateHeld, nil, "") {
			held = append(held, j)
			ev := acceptedEvent(j, idemByID[j.id])
			ev.At = now
			events = append(events, ev)
		}
	}
	if len(held) == 0 {
		httpjson.Write(w, http.StatusOK, map[string]any{"migrated": 0, "target": req.TargetName})
		return
	}
	if err := shipMigration(req.TargetURL, s.cfg.NodeName, events); err != nil {
		// Release: back to queued, and requeue in case a worker popped
		// (and skipped) a held job during the window. A duplicate queue
		// entry is benign — tryStart's CAS absorbs the second pop. The
		// requeue skips the capacity bound: these jobs were admitted
		// already, and their own entries may be what fills the queue.
		for _, j := range held {
			j.unclaim()
			if perr := s.sched.requeue(j); perr != nil {
				s.settle(j, StateQueued, StateCanceled, nil, "migration revert requeue failed: "+perr.Error(), nil)
			}
		}
		httpjson.Error(w, http.StatusBadGateway, "migration to %s failed: %v", req.TargetName, err)
		return
	}
	for _, j := range held {
		s.settle(j, stateHeld, StateMigrated, nil, req.TargetName, nil)
	}
	httpjson.Write(w, http.StatusOK, map[string]any{"migrated": len(held), "target": req.TargetName})
}

// shipMigration POSTs the frozen jobs' acceptance records to the
// target's adopt endpoint, which adopts exactly these records.
func shipMigration(targetURL, origin string, events []journal.Event) error {
	if origin == "" {
		origin = "unnamed"
	}
	frames, err := journal.EncodeFrames(events)
	if err != nil {
		return err
	}
	base := strings.TrimSuffix(targetURL, "/")
	resp, err := migrateClient.Post(base+"/v1/replica/"+url.PathEscape(origin)+"/adopt",
		"application/octet-stream", bytes.NewReader(frames))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("adopt: HTTP %d", resp.StatusCode)
	}
	return nil
}
