package server

import (
	"testing"
	"time"

	"thermalherd/internal/qos"
)

func testJob(id string) *job {
	j, err := newJob(id, Spec{Kind: KindTiming, Config: "3D", Workload: "patricia"}, nil)
	if err != nil {
		panic(err)
	}
	return j
}

// popWithin pops from q, failing the test if pop blocks for 2s (a capped
// class would block rather than deliver).
func popWithin(t *testing.T, q *qosSched) (*job, bool) {
	t.Helper()
	type popped struct {
		j  *job
		ok bool
	}
	ch := make(chan popped, 1)
	go func() {
		j, ok := q.pop()
		ch <- popped{j, ok}
	}()
	select {
	case p := <-ch:
		return p.j, p.ok
	case <-time.After(2 * time.Second):
		t.Fatal("pop blocked")
		return nil, false
	}
}

// TestQueueFIFO pins the FIFO configuration of the scheduler: one lane
// in global arrival order whatever the tenant or class, and no cap on
// how many long jobs may run at once (popped jobs are never finished
// here, so a long-class cap would block the second long pop).
func TestQueueFIFO(t *testing.T) {
	mk := func(id, tenant string, class qos.Class) *job {
		j := testJob(id)
		j.tenant = tenant
		j.setClass(class)
		return j
	}
	short, long := qos.ClassShort, qos.ClassLong
	cases := []struct {
		name string
		jobs []*job
	}{
		{"one tenant", []*job{mk("a", "t", short), mk("b", "t", short), mk("c", "t", short)}},
		{"two tenants interleaved", []*job{mk("a1", "a", short), mk("a2", "a", short),
			mk("b1", "b", short), mk("a3", "a", short), mk("b2", "b", short)}},
		{"pre-classed long", []*job{mk("l1", "t", long), mk("l2", "t", long),
			mk("s1", "t", short), mk("l3", "t", long)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := newFIFOSched(len(tc.jobs), nil)
			for _, j := range tc.jobs {
				if err := q.push(j); err != nil {
					t.Fatalf("push(%s): %v", j.id, err)
				}
			}
			if q.len() != len(tc.jobs) {
				t.Fatalf("len = %d, want %d", q.len(), len(tc.jobs))
			}
			for i, want := range tc.jobs {
				if j, ok := popWithin(t, q); !ok || j.id != want.id {
					t.Fatalf("pop %d = %v (ok=%v), want %s", i, j, ok, want.id)
				}
			}
		})
	}
}

func TestQueueFull(t *testing.T) {
	q := newFIFOSched(1, nil)
	if err := q.push(testJob("a")); err != nil {
		t.Fatalf("push: %v", err)
	}
	if err := q.push(testJob("b")); err != ErrQueueFull {
		t.Fatalf("push on full = %v, want ErrQueueFull", err)
	}
}

func TestQueueClose(t *testing.T) {
	q := newFIFOSched(2, nil)
	q.push(testJob("a"))
	q.close()
	if err := q.push(testJob("b")); err != ErrQueueClosed {
		t.Fatalf("push after close = %v, want ErrQueueClosed", err)
	}
	// Remaining items still drain, then pop reports closed.
	if j, ok := q.pop(); !ok || j.id != "a" {
		t.Fatalf("pop after close = %v,%v, want a,true", j, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on drained closed queue reported ok")
	}
}

func TestQueueCloseWakesBlockedPop(t *testing.T) {
	q := newFIFOSched(1, nil)
	done := make(chan bool, 1)
	go func() {
		_, ok := q.pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("blocked pop returned ok after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not wake on close")
	}
}

func TestQueueDrainPending(t *testing.T) {
	q := newFIFOSched(4, nil)
	q.push(testJob("a"))
	q.push(testJob("b"))
	pending := q.drainPending()
	if len(pending) != 2 || pending[0].id != "a" || pending[1].id != "b" {
		t.Fatalf("drainPending = %v", pending)
	}
	if q.len() != 0 {
		t.Fatalf("len after drain = %d, want 0", q.len())
	}
}
