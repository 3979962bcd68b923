// Package replication streams a thermherdd backend's journal records
// to its ring successor, forming the primary→backup chain that lets
// the herd survive a kill -9: the successor holds a replica of every
// acked-but-unfinished job and can adopt it when the gateway declares
// the primary dead. The wire format is the journal's own CRC-framed
// record stream (journal.EncodeFrames), POSTed to the successor's
// /v1/replica/{origin} endpoint, so the replica file a successor keeps
// is byte-compatible with a WAL segment.
//
// The ack policy decides what a submit acknowledgment promises:
//
//   - none: no replication; a dead node's jobs die with it (the PR 5
//     WAL still covers the node's own restart).
//   - sync: the submit ack waits for the successor's append; a lost
//     ack requires losing both chain links at once.
//
// The successor is resolved lazily per send through Options.Target, so
// ring-epoch bumps (joins, removals) re-derive the chain without
// restarting the streamer.
//
//thermlint:goroutines
package replication

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"thermalherd/internal/faultinject"
	"thermalherd/internal/journal"
)

// FaultStream fires before each replica batch is sent; an error action
// simulates the successor rejecting or never receiving the append
// (under the sync policy the submit ack is then withheld).
//
//thermlint:faultpoints
const (
	FaultStream = "repl.stream"
)

// Policy is the replication ack policy.
type Policy string

const (
	// PolicyNone disables replication.
	PolicyNone Policy = "none"
	// PolicySync blocks each journaled event on the successor's append;
	// an acked job survives the primary's death.
	PolicySync Policy = "sync"
)

// ParsePolicy validates a policy string (the -repl flag); empty means
// PolicyNone.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyNone, PolicySync:
		return Policy(s), nil
	case "":
		return PolicyNone, nil
	}
	return "", fmt.Errorf("replication: unknown policy %q (want none or sync)", s)
}

// Options configures New.
type Options struct {
	// Policy is the ack policy; PolicyNone yields a streamer whose
	// Replicate is a no-op.
	Policy Policy
	// Origin is this node's herd name; it keys the successor's replica
	// store and suffixes adopted job ids.
	Origin string
	// Target resolves the current successor as (name, baseURL). It is
	// called per send so chain re-derivation after a ring-epoch bump
	// takes effect immediately; returning an empty URL skips the send
	// (no successor — a one-node herd).
	Target func() (name, url string)
	// Client is the HTTP client for replica appends; nil uses a
	// 2-second-timeout default.
	Client *http.Client
	// Faults is the chaos fault-injection registry (may be nil).
	Faults *faultinject.Registry
}

// Stats counts a streamer's sends since New.
type Stats struct {
	// Streamed counts events acknowledged by the successor.
	Streamed uint64
	// StreamErrors counts batches the successor rejected or never
	// received.
	StreamErrors uint64
}

// Streamer replicates journal events to the ring successor under one
// ack policy. Methods are safe for concurrent use.
type Streamer struct {
	opts   Options
	client *http.Client

	streamed     atomic.Uint64
	streamErrors atomic.Uint64
}

// New builds a streamer for the given policy.
func New(opts Options) (*Streamer, error) {
	if _, err := ParsePolicy(string(opts.Policy)); err != nil {
		return nil, err
	}
	if opts.Policy == "" {
		opts.Policy = PolicyNone
	}
	if opts.Policy != PolicyNone {
		if opts.Origin == "" {
			return nil, fmt.Errorf("replication: Options.Origin is required for policy %s", opts.Policy)
		}
		if opts.Target == nil {
			return nil, fmt.Errorf("replication: Options.Target is required for policy %s", opts.Policy)
		}
	}
	s := &Streamer{opts: opts, client: opts.Client}
	if s.client == nil {
		s.client = &http.Client{Timeout: 2 * time.Second}
	}
	return s, nil
}

// Policy reports the configured ack policy.
func (s *Streamer) Policy() Policy {
	if s == nil {
		return PolicyNone
	}
	return s.opts.Policy
}

// Replicate ships one journal event to the successor per the policy.
// Under sync a non-nil error means the event is NOT replicated and the
// caller must withhold the acknowledgment; under none it is a no-op.
// Safe on a nil receiver (no-op), so callers need no policy branching.
func (s *Streamer) Replicate(ev journal.Event) error {
	if s == nil || s.opts.Policy == PolicyNone {
		return nil
	}
	return s.send(ev)
}

// send POSTs one framed event to the current successor's replica
// endpoint. An empty target URL (no successor) succeeds vacuously.
func (s *Streamer) send(ev journal.Event) error {
	if ferr := s.opts.Faults.Fire(FaultStream); ferr != nil {
		s.streamErrors.Add(1)
		return ferr
	}
	_, base := s.opts.Target()
	if base == "" {
		return nil
	}
	body, err := journal.EncodeFrames([]journal.Event{ev})
	if err != nil {
		s.streamErrors.Add(1)
		return err
	}
	target := base + "/v1/replica/" + url.PathEscape(s.opts.Origin)
	resp, err := s.client.Post(target, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		s.streamErrors.Add(1)
		return fmt.Errorf("replication: append to %s: %w", target, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		s.streamErrors.Add(1)
		return fmt.Errorf("replication: append to %s: HTTP %d", target, resp.StatusCode)
	}
	s.streamed.Add(1)
	return nil
}

// Stats returns send counts since New.
func (s *Streamer) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Streamed:     s.streamed.Load(),
		StreamErrors: s.streamErrors.Load(),
	}
}

// Close releases the streamer. Sends are synchronous, so nothing is
// pending; it exists so owners can tie the streamer's lifetime to
// their own shutdown.
func (s *Streamer) Close() {}
