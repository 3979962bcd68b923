package server

import (
	"strconv"
	"strings"
	"time"

	"thermalherd/internal/journal"
)

// This file is the server side of crash recovery: applyReplay folds
// what journal.Open recovered into a live job table (through restore,
// which replica adoption shares), and the small
// helpers around it (logEvent, snapshotJobs, compactMaybe,
// closeJournal) keep the journal in step with the table afterwards.

// logEvent journals one lifecycle transition, then replicates it to
// the ring successor per the configured policy. Admission treats a
// failure as a rejection (the durability promise is the ack) — under
// the sync policy that includes the successor's append, which is
// exactly the zero-acked-loss guarantee. Terminal transitions go
// through settle instead, which tells a local failure from a
// replication one.
func (s *Server) logEvent(ev journal.Event) error {
	if err := s.appendEvent(&ev); err != nil {
		return err
	}
	return s.cfg.Repl.Replicate(ev)
}

// appendEvent stamps ev and appends it to the local journal, if any.
func (s *Server) appendEvent(ev *journal.Event) error {
	ev.At = s.cfg.Clock.Now().Format(time.RFC3339Nano)
	if s.journal == nil {
		return nil
	}
	return s.journal.Append(*ev)
}

// applyReplay rebuilds the job table from the journal's snapshot plus
// the WAL events behind it. Event application is idempotent — an
// accepted event for a known id, or a terminal event on an already
// terminal record, is skipped — so replaying events the snapshot
// already covers (the crash-between-snapshot-and-truncate window)
// changes nothing, and a completed job can never be resurrected or
// double-counted. Jobs that were accepted but not finished come back
// as queued and are re-enqueued in their original order.
func (s *Server) applyReplay() {
	rep := s.replay
	if s.journal == nil || rep == nil {
		return
	}
	s.replay = nil // one-shot; free the buffered events

	var requeued uint64
	for _, rec := range foldEvents(rep.Snapshot, rep.Events) {
		j, err := newJobFromRecord(*rec, s.cfg.Clock)
		if err != nil {
			continue // undecodable record; drop rather than refuse to boot
		}
		s.register(j, rec.IdemKey)
		if s.restore(j, rec) {
			requeued++
		}
	}

	// Resume id minting past every recovered id so new jobs never
	// collide with journaled ones.
	s.mu.Lock()
	for id := range s.jobs {
		if n, ok := parseJobID(id); ok && n > s.nextID {
			s.nextID = n
		}
	}
	s.mu.Unlock()

	s.replayStats.replayed = uint64(len(rep.Events))
	s.replayStats.truncated = uint64(rep.TruncatedRecords)
	s.replayStats.recovered = requeued
}

// restore takes over one registered job rebuilt from a journal record
// — this node's own at crash recovery, or a peer's at adoption: it
// counts the job under its recorded state (rebuilding the counters the
// job produced live, so the accounting identity holds), warms the
// result cache with a recovered result, and re-enqueues unfinished
// work. It reports whether the job was re-enqueued.
func (s *Server) restore(j *job, rec *journal.JobRecord) bool {
	o, terminal := stateOutcome[State(rec.State)]
	switch {
	case rec.FromCache:
		s.metrics.answered(j.tenant, outHits)
	case terminal:
		s.metrics.inc(&s.metrics.cacheMisses)
		s.metrics.answered(j.tenant, o)
	default:
		s.metrics.inc(&s.metrics.cacheMisses)
		// Re-classify at requeue time: the predictor may have trained
		// since this job was first admitted (or be empty after a cold
		// restart, defaulting the class to short).
		j.setClass(s.predictor.Predict(j.pkey))
		s.metrics.accepted(j.tenant)
		err := s.sched.requeue(j)
		if err != nil {
			s.settle(j, StateQueued, StateCanceled, nil, "requeue failed: "+err.Error(), nil)
		}
		return err == nil
	}
	if len(rec.Result) > 0 && rec.Key != "" {
		// Resubmissions of recovered work stay hits across the restart.
		s.cache.put(rec.Key, rec.Result)
	}
	return false
}

// foldEvents rebuilds job records from a snapshot plus WAL events, in
// first-seen order. Application is idempotent: an accepted event for a
// known id, or any event on an already-terminal record, is skipped —
// so a record set folded from overlapping sources (a snapshot and the
// WAL behind it, or a retried replica stream) converges on the same
// state. Shared by the node's own crash recovery (applyReplay) and by
// replica adoption (adoptOrigin), which is what makes a successor's
// view of a dead peer's jobs agree with what the peer itself would
// have recovered.
func foldEvents(snap *journal.Snapshot, events []journal.Event) []*journal.JobRecord {
	recs := make(map[string]*journal.JobRecord)
	var order []string
	if snap != nil {
		for i := range snap.Jobs {
			rec := snap.Jobs[i]
			if _, ok := recs[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			recs[rec.ID] = &rec
		}
	}
	for _, ev := range events {
		rec, known := recs[ev.ID]
		if ev.Type == journal.EventAccepted {
			if !known {
				recs[ev.ID] = &journal.JobRecord{
					ID: ev.ID, Spec: ev.Spec, Key: ev.Key, IdemKey: ev.IdemKey,
					Tenant: ev.Tenant,
					State:  string(StateQueued), Submitted: ev.At,
				}
				order = append(order, ev.ID)
			}
			continue
		}
		if !known {
			continue
		}
		if _, done := terminalEvents[State(rec.State)]; done {
			continue
		}
		if ev.Type == journal.EventStarted {
			// Legacy record, one per executed job in journals written
			// before terminal events carried Started: keep its time.
			rec.Started = ev.At
			continue
		}
		for state, typ := range terminalEvents {
			if typ != ev.Type {
				continue
			}
			rec.State = string(state)
			rec.Error, rec.Result, rec.FromCache, rec.MigratedTo = ev.Error, ev.Result, ev.FromCache, ev.MigratedTo
			rec.Finished = ev.At
			if ev.Started != "" {
				rec.Started = ev.Started
			}
		}
	}
	out := make([]*journal.JobRecord, 0, len(order))
	for _, id := range order {
		out = append(out, recs[id])
	}
	return out
}

// parseJobID extracts the numeric suffix of a "job-%06d" id.
func parseJobID(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	return n, err == nil
}

// snapshotJobs folds the current job table into journal records,
// sorted by id for deterministic snapshots.
func (s *Server) snapshotJobs() []journal.JobRecord {
	jobs, idemByID := s.sortedJobs()
	recs := make([]journal.JobRecord, len(jobs))
	for i, j := range jobs {
		recs[i] = j.record(idemByID[j.id])
	}
	return recs
}

// compactMaybe snapshots the job table when the WAL has outgrown its
// threshold. The table copy and the WAL truncation are atomic with
// respect to appends (Compact holds the journal lock across both), and
// every lifecycle path mutates the job table before journaling its
// event (admission registers before appending; settle claims the
// transition, which the snapshot's durable view reads, before
// appending and publishes it only after), so any event the truncation
// drops is already covered by the snapshot and any event not yet
// covered lands in the fresh WAL — an acked job is never lost to the
// compaction window, and a client never sees an outcome neither holds.
func (s *Server) compactMaybe() {
	if s.journal != nil && s.journal.ShouldCompact() {
		s.compact(false)
	}
}

// compact folds the job table into the snapshot. Holding settling
// keeps each settle's claim and append on one side of the capture, so
// a claim whose append the journal refuses is never snapshotted.
func (s *Server) compact(clean bool) {
	s.settling.Lock()
	defer s.settling.Unlock()
	s.journal.Compact(func() journal.Snapshot {
		return journal.Snapshot{Clean: clean, Jobs: s.snapshotJobs()}
	})
}

// closeJournal finishes a drain: the whole (now terminal) job table is
// written as a clean snapshot so the next boot replays zero records,
// then the WAL is closed.
func (s *Server) closeJournal() {
	if s.journal != nil {
		s.compact(true)
		s.journal.Close()
	}
}
