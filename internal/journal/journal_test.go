package journal

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"thermalherd/internal/faultinject"
)

func open(t *testing.T, opts Options) (*Journal, *Replay) {
	t.Helper()
	j, rep, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j, rep
}

func ev(typ EventType, id string) Event {
	return Event{Type: typ, ID: id, At: "2026-01-01T00:00:00Z"}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rep := open(t, Options{Dir: dir})
	if rep.Snapshot != nil || len(rep.Events) != 0 || rep.TruncatedRecords != 0 {
		t.Fatalf("fresh dir should replay nothing, got %+v", rep)
	}
	events := []Event{
		{Type: EventAccepted, ID: "job-000001", Spec: json.RawMessage(`{"kind":"timing"}`), Key: "k1", IdemKey: "i1", At: "t0"},
		ev(EventStarted, "job-000001"),
		{Type: EventCompleted, ID: "job-000001", Result: json.RawMessage(`{"ok":true}`), Started: "t1", At: "t2"},
		{Type: EventFailed, ID: "job-000002", Error: "boom", At: "t3"},
	}
	for _, e := range events {
		if err := j.Append(e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if st := j.Stats(); st.Appends != 4 || st.Fsyncs != 4 {
		t.Fatalf("fsync=always should sync per append, got %+v", st)
	}
	j.Close()

	_, rep2 := open(t, Options{Dir: dir})
	if len(rep2.Events) != len(events) {
		t.Fatalf("replayed %d events, want %d", len(rep2.Events), len(events))
	}
	for i, got := range rep2.Events {
		want := events[i]
		if got.Type != want.Type || got.ID != want.ID || got.Error != want.Error ||
			string(got.Spec) != string(want.Spec) || string(got.Result) != string(want.Result) ||
			got.Key != want.Key || got.IdemKey != want.IdemKey || got.At != want.At || got.Started != want.Started {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	if rep2.TruncatedRecords != 0 || rep2.CleanClose {
		t.Fatalf("unexpected replay flags: %+v", rep2)
	}
}

func TestFsyncPolicies(t *testing.T) {
	t.Run("off", func(t *testing.T) {
		j, _ := open(t, Options{Dir: t.TempDir(), Fsync: FsyncOff})
		for i := 0; i < 5; i++ {
			if err := j.Append(ev(EventAccepted, "job-000001")); err != nil {
				t.Fatal(err)
			}
		}
		if st := j.Stats(); st.Fsyncs != 0 {
			t.Fatalf("fsync=off synced %d times", st.Fsyncs)
		}
	})
	t.Run("parse", func(t *testing.T) {
		for _, good := range []string{"always", "off", ""} {
			if _, err := ParseFsyncPolicy(good); err != nil {
				t.Errorf("ParseFsyncPolicy(%q): %v", good, err)
			}
		}
		for _, bad := range []string{"sometimes", "interval"} {
			if _, err := ParseFsyncPolicy(bad); err == nil {
				t.Errorf("ParseFsyncPolicy(%q) should fail", bad)
			}
		}
	})
}

// TestTornTailSweep is the crash-consistency core: record a journal,
// then recover from every byte-length prefix 0..N. Recovery must never
// error, and the replayed events must always be an exact prefix of
// what was written.
func TestTornTailSweep(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, Options{Dir: dir})
	var written []Event
	for i := 0; i < 6; i++ {
		e := Event{Type: EventAccepted, ID: "job-00000" + string(rune('1'+i)), Key: "k", At: "t"}
		written = append(written, e)
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	walPath := filepath.Join(dir, walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for n := 0; n <= len(full); n++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, walName), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		jj, rep, err := Open(Options{Dir: sub})
		if err != nil {
			t.Fatalf("prefix %d: Open: %v", n, err)
		}
		// Replayed events must be an exact prefix of what was written.
		if len(rep.Events) > len(written) {
			t.Fatalf("prefix %d: replayed %d > written %d", n, len(rep.Events), len(written))
		}
		for i, got := range rep.Events {
			if got.ID != written[i].ID {
				t.Fatalf("prefix %d: event %d id %q want %q", n, i, got.ID, written[i].ID)
			}
		}
		// A torn tail must be reported and physically truncated so the
		// next append starts on a frame boundary.
		if fi, _ := os.Stat(filepath.Join(sub, walName)); rep.TruncatedRecords > 0 {
			wantLen := int64(0)
			for i := 0; i < len(rep.Events); i++ {
				payload, _ := json.Marshal(rep.Events[i])
				wantLen += int64(frameHeader + len(payload))
			}
			if fi.Size() != wantLen {
				t.Fatalf("prefix %d: truncated to %d bytes, want %d", n, fi.Size(), wantLen)
			}
		}
		// Appending after recovery must produce a fully valid log.
		if err := jj.Append(ev(EventFailed, "job-999999")); err != nil {
			t.Fatalf("prefix %d: append after recovery: %v", n, err)
		}
		jj.Close()
		_, rep2, err := Open(Options{Dir: sub})
		if err != nil {
			t.Fatalf("prefix %d: reopen: %v", n, err)
		}
		if got := len(rep2.Events); got != len(rep.Events)+1 {
			t.Fatalf("prefix %d: reopen replayed %d, want %d", n, got, len(rep.Events)+1)
		}
		if last := rep2.Events[len(rep2.Events)-1]; last.ID != "job-999999" {
			t.Fatalf("prefix %d: last event %q", n, last.ID)
		}
	}
}

func TestCorruptMiddleRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := j.Append(ev(EventAccepted, "job-000001")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	walPath := filepath.Join(dir, walName)
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the second frame.
	first := binary.LittleEndian.Uint32(b[0:4])
	off := frameHeader + int(first) + frameHeader // second frame's payload start
	b[off] ^= 0xff
	if err := os.WriteFile(walPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep := open(t, Options{Dir: dir})
	if len(rep.Events) != 1 || rep.TruncatedRecords != 1 {
		t.Fatalf("want 1 event + 1 truncation, got %d events, %d truncated", len(rep.Events), rep.TruncatedRecords)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, Options{Dir: dir, CompactBytes: 1})
	if err := j.Append(ev(EventAccepted, "job-000001")); err != nil {
		t.Fatal(err)
	}
	if !j.ShouldCompact() {
		t.Fatal("WAL above threshold should want compaction")
	}
	snap := Snapshot{Jobs: []JobRecord{{ID: "job-000001", State: "done", Key: "k", Result: json.RawMessage(`{"ok":true}`)}}}
	if err := j.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if j.Size() != 0 {
		t.Fatalf("WAL should be empty after compaction, size=%d", j.Size())
	}
	// Appends after compaction replay on top of the snapshot.
	if err := j.Append(ev(EventAccepted, "job-000002")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, rep := open(t, Options{Dir: dir})
	if rep.Snapshot == nil || len(rep.Snapshot.Jobs) != 1 || rep.Snapshot.Jobs[0].ID != "job-000001" {
		t.Fatalf("snapshot not recovered: %+v", rep.Snapshot)
	}
	if len(rep.Events) != 1 || rep.Events[0].ID != "job-000002" {
		t.Fatalf("post-snapshot events not recovered: %+v", rep.Events)
	}
	if rep.CleanClose {
		t.Fatal("non-clean snapshot with trailing events must not report CleanClose")
	}
}

func TestCleanCloseMarker(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, Options{Dir: dir})
	if err := j.Append(ev(EventAccepted, "job-000001")); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteSnapshot(Snapshot{Clean: true, Jobs: []JobRecord{{ID: "job-000001", State: "done"}}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, rep := open(t, Options{Dir: dir})
	if !rep.CleanClose {
		t.Fatalf("clean snapshot + empty WAL should report CleanClose: %+v", rep)
	}
	if len(rep.Events) != 0 {
		t.Fatalf("clean restart should replay zero records, got %d", len(rep.Events))
	}
}

func TestCorruptSnapshotFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, Options{Dir: dir})
	if err := j.WriteSnapshot(Snapshot{Jobs: []JobRecord{{ID: "job-000001", State: "done"}}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ev(EventAccepted, "job-000002")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Corrupt the snapshot body.
	snapPath := filepath.Join(dir, snapshotName)
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(snapPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep := open(t, Options{Dir: dir})
	if rep.Snapshot != nil || !rep.SnapshotCorrupt {
		t.Fatalf("corrupt snapshot should be ignored and flagged: %+v", rep)
	}
	if len(rep.Events) != 1 {
		t.Fatalf("WAL events should still replay, got %d", len(rep.Events))
	}
}

// TestFaultInjectedAppendRestoresBoundary: a failed append (which
// really writes a torn half-frame first) must restore the last good
// frame boundary before returning, so the journal keeps accepting
// appends and none of them is stranded behind the torn frame.
func TestFaultInjectedAppendRestoresBoundary(t *testing.T) {
	dir := t.TempDir()
	reg := faultinject.New()
	if err := reg.Arm("journal.append=error:disk gone,count:1", 1); err != nil {
		t.Fatal(err)
	}
	j, _ := open(t, Options{Dir: dir, Faults: reg})
	if err := j.Append(ev(EventAccepted, "job-000001")); err == nil {
		t.Fatal("injected append fault should surface an error")
	}
	if j.Size() != 0 {
		t.Fatalf("failed append left %d bytes in the WAL, want the frame boundary restored", j.Size())
	}
	j.Close()
	_, rep := open(t, Options{Dir: dir})
	if len(rep.Events) != 0 || rep.TruncatedRecords != 0 {
		t.Fatalf("restored boundary should replay cleanly, got %d events, %d truncated",
			len(rep.Events), rep.TruncatedRecords)
	}
}

// TestAppendFailThenContinue is the ack-durability regression the torn
// half-frame used to break: events acked AFTER a transient append
// failure must survive a restart, not be dropped at the torn frame.
func TestAppendFailThenContinue(t *testing.T) {
	dir := t.TempDir()
	reg := faultinject.New()
	j, _ := open(t, Options{Dir: dir, Faults: reg})
	if err := j.Append(ev(EventAccepted, "job-000001")); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	// Arm a one-shot fault: the second append fails, the third succeeds.
	if err := reg.Arm("journal.append=error:transient enospc,count:1", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ev(EventAccepted, "job-000002")); err == nil {
		t.Fatal("injected append fault should surface an error")
	}
	if err := j.Append(ev(EventAccepted, "job-000003")); err != nil {
		t.Fatalf("append after transient failure: %v", err)
	}
	j.Close()
	_, rep := open(t, Options{Dir: dir})
	if len(rep.Events) != 2 || rep.TruncatedRecords != 0 {
		t.Fatalf("want both acked events (no truncation), got %d events, %d truncated",
			len(rep.Events), rep.TruncatedRecords)
	}
	if rep.Events[0].ID != "job-000001" || rep.Events[1].ID != "job-000003" {
		t.Fatalf("recovered wrong events: %+v", rep.Events)
	}
}

// TestCompactHoldsOutConcurrentAppend: an append racing a compaction
// must land in the fresh WAL after the truncation (never in the gap
// between the state capture and the truncate, where it would be lost).
func TestCompactHoldsOutConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, Options{Dir: dir, Fsync: FsyncOff})
	if err := j.Append(ev(EventAccepted, "job-000001")); err != nil {
		t.Fatal(err)
	}
	appended := make(chan error, 1)
	err := j.Compact(func() Snapshot {
		// Fire a concurrent append mid-compaction; it must block on the
		// journal lock until the truncate is done.
		go func() { appended <- j.Append(ev(EventAccepted, "job-000002")) }()
		time.Sleep(20 * time.Millisecond) // give the append a chance to reach the lock
		return Snapshot{Jobs: []JobRecord{{ID: "job-000001", State: "queued"}}}
	})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := <-appended; err != nil {
		t.Fatalf("concurrent append: %v", err)
	}
	j.Close()
	_, rep := open(t, Options{Dir: dir})
	if rep.Snapshot == nil || len(rep.Snapshot.Jobs) != 1 {
		t.Fatalf("snapshot not recovered: %+v", rep.Snapshot)
	}
	if len(rep.Events) != 1 || rep.Events[0].ID != "job-000002" {
		t.Fatalf("append racing compaction was lost: events = %+v", rep.Events)
	}
}

func TestFaultInjectedFsyncFailsAppend(t *testing.T) {
	reg := faultinject.New()
	if err := reg.Arm("journal.fsync=error:fsync eio,count:1", 1); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, _ := open(t, Options{Dir: dir, Fsync: FsyncAlways, Faults: reg})
	if err := j.Append(ev(EventAccepted, "job-000001")); err == nil {
		t.Fatal("injected fsync fault under fsync=always should fail the append")
	}
	if err := j.Append(ev(EventAccepted, "job-000002")); err != nil {
		t.Fatalf("append after spent fault: %v", err)
	}
	j.Close()
	// A failed append means the record is not in the WAL: a replay
	// must not find the event its caller was told failed.
	_, rep := open(t, Options{Dir: dir})
	if len(rep.Events) != 1 || rep.Events[0].ID != "job-000002" {
		t.Fatalf("replay after a failed fsync = %+v, want only job-000002", rep.Events)
	}
}

func TestFaultInjectedSnapshotAbortsCompaction(t *testing.T) {
	reg := faultinject.New()
	if err := reg.Arm("journal.snapshot=error:no space,count:1", 1); err != nil {
		t.Fatal(err)
	}
	j, _ := open(t, Options{Dir: t.TempDir(), Faults: reg})
	if err := j.Append(ev(EventAccepted, "job-000001")); err != nil {
		t.Fatal(err)
	}
	before := j.Size()
	if err := j.WriteSnapshot(Snapshot{}); err == nil {
		t.Fatal("injected snapshot fault should surface an error")
	}
	if j.Size() != before {
		t.Fatal("failed compaction must leave the WAL intact")
	}
}

func TestReset(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, Options{Dir: dir})
	if err := j.Append(ev(EventAccepted, "job-000001")); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteSnapshot(Snapshot{Jobs: []JobRecord{{ID: "job-000001", State: "done"}}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	j.Close()
	_, rep := open(t, Options{Dir: dir})
	if rep.Snapshot != nil || len(rep.Events) != 0 {
		t.Fatalf("Reset should discard all state, got %+v", rep)
	}
}
