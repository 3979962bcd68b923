package server

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"thermalherd/internal/clock"
	"thermalherd/internal/qos"
)

// Scheduling policies accepted by Config.SchedPolicy. Both configure
// the one scheduler, qosSched; FIFO is QoS with its predictor off.
const (
	// SchedFIFO is the classic bounded first-in-first-out queue: one
	// lane for all tenants, no long-class cap, no predictor training.
	SchedFIFO = "fifo"
	// SchedQoS enables the cost-predicted multi-tenant scheduler: a
	// reserved short-job fast pool, weighted-fair dequeue across
	// tenants, and mid-flight demotion of overrunning shorts.
	SchedQoS = "qos"
)

// Queue admission errors.
var (
	// ErrQueueFull rejects a push when the queue is at capacity; the
	// HTTP layer maps it to 503.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrQueueClosed rejects pushes after shutdown began.
	ErrQueueClosed = errors.New("server: job queue closed")
)

// predictorKey buckets a spec for the job-cost predictor — the
// service-level analogue of the PC index into the paper's width
// predictor tables. It is deliberately coarser than the cache key:
// (kind, workload, config, depth-class) for simulations, (kind,
// section, depth-class) for experiments, where depth-class is the
// preset name or, when the measure depth is overridden, its log2
// bucket. Specs in one bucket have runtimes of the same order, so one
// 2-bit counter per bucket converges fast.
func predictorKey(spec Spec) string {
	depth := spec.Depths.Preset
	if spec.Depths.Measure > 0 {
		depth = fmt.Sprintf("m%d", bits.Len64(spec.Depths.Measure))
	}
	if spec.Depths.Grid > 0 {
		depth += fmt.Sprintf("/g%d", spec.Depths.Grid)
	}
	if spec.Kind == KindExperiment {
		return string(spec.Kind) + "/" + spec.Section + "/" + depth
	}
	return string(spec.Kind) + "/" + spec.Workload + "/" + spec.Config + "/" + depth
}

// slotInfo is one running job's charge against the qos scheduler's
// per-class occupancy accounting.
type slotInfo struct {
	j *job
	// predicted is the class charged at pop time (what admission
	// predicted); class is the current charge, which demotion can flip
	// to long mid-flight.
	predicted qos.Class
	class     qos.Class
}

// qosSched is the scheduler feeding the worker pool. Under SchedQoS
// queued jobs sit in per-tenant, per-class weighted-fair lanes, and
// dequeue enforces a reserved short-job fast pool by capping
// long-class concurrency at longCap (Workers - ShortReserve) — workers
// stay homogeneous; what is reserved is occupancy, not goroutines.
// Shorts are always eligible and always preferred, so a flood of
// heavyweight sweeps can occupy at most longCap slots while at least
// ShortReserve slots keep draining interactive work.
//
// A running predicted-short job that overruns the short budget is
// demoted by the sweep (demoteOverruns): its charge flips to long —
// possibly pushing long occupancy past longCap, which blocks further
// long dequeues until it finishes, the service-level analogue of the
// paper's unsafe-mispredict stall — and its predictor counter is
// retrained so the next submission of its bucket is classed long at
// admission.
//
// SchedFIFO is the same scheduler with the predictor off (pred nil),
// as the paper turns herding off by dropping its width predictor:
// every job joins one short-class lane in global arrival order, so no
// cap applies, nothing is trained and nothing is demoted.
type qosSched struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	clk      clock.Clock
	pred     *qos.Predictor
	fq       *qos.FairQueue[*job]
	max      int
	longCap  int
	budget   time.Duration

	closed  bool
	running map[string]*slotInfo
	nShort  int
	nLong   int
}

// newFIFOSched configures the scheduler as SchedFIFO.
func newFIFOSched(maxQueued int, clk clock.Clock) *qosSched {
	return newQoSSched(maxQueued, 1, 0, 0, nil, nil, clk)
}

func newQoSSched(maxQueued, workers, shortReserve int, budget time.Duration,
	weights map[string]int, pred *qos.Predictor, clk clock.Clock) *qosSched {
	if maxQueued <= 0 {
		maxQueued = 1
	}
	if workers < 1 {
		workers = 1
	}
	if shortReserve <= 0 {
		shortReserve = workers / 4
		if shortReserve < 1 {
			shortReserve = 1
		}
	}
	if shortReserve >= workers {
		// At least one slot must remain for long work or a trained-long
		// bucket could never run at all.
		shortReserve = workers - 1
		if shortReserve < 1 {
			shortReserve = 1
		}
	}
	longCap := workers - shortReserve
	if longCap < 1 {
		longCap = 1
	}
	if clk == nil {
		clk = clock.Real()
	}
	q := &qosSched{
		clk:     clk,
		pred:    pred,
		fq:      qos.NewFairQueue[*job](weights),
		max:     maxQueued,
		longCap: longCap,
		budget:  budget,
		running: make(map[string]*slotInfo),
	}
	q.nonEmpty = sync.NewCond(&q.mu)
	return q
}

// push admits one live job, failing when the queue is full or closed.
func (q *qosSched) push(j *job) error { return q.enqueue(j, q.max) }

// requeue admits j past the capacity bound; recovery and adoption use
// it so a replayed backlog larger than QueueDepth is never silently
// dropped (the bound protects live admission, not recovered work).
func (q *qosSched) requeue(j *job) error { return q.enqueue(j, math.MaxInt) }

// enqueue appends j to its lane unless the scheduler is closed or
// already holds limit jobs. Under SchedFIFO every job joins the single
// short lane, so pop serves global arrival order with no cap.
func (q *qosSched) enqueue(j *job, limit int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if q.fq.Len() >= limit {
		return ErrQueueFull
	}
	if q.pred == nil {
		q.fq.Push("", qos.ClassShort, j)
	} else {
		q.fq.Push(j.tenant, j.qclass(), j)
	}
	q.nonEmpty.Signal()
	return nil
}

// pop blocks for the next runnable job: queued shorts first (weighted
// fair across tenants), then longs while long occupancy is under the
// cap. A closed scheduler keeps delivering until both the queue is
// empty and nothing capacity-blocked remains (finished wakes waiters
// as slots free up).
func (q *qosSched) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if j, ok := q.fq.Pop(qos.ClassShort); ok {
			q.charge(j, qos.ClassShort)
			return j, true
		}
		if q.nLong < q.longCap {
			if j, ok := q.fq.Pop(qos.ClassLong); ok {
				q.charge(j, qos.ClassLong)
				return j, true
			}
		}
		if q.closed && q.fq.Len() == 0 {
			return nil, false
		}
		q.nonEmpty.Wait()
	}
}

// charge records j as occupying one slot of class. Caller holds q.mu.
func (q *qosSched) charge(j *job, class qos.Class) {
	q.running[j.id] = &slotInfo{j: j, predicted: class, class: class}
	if class == qos.ClassShort {
		q.nShort++
	} else {
		q.nLong++
	}
}

// finished releases j's slot charge and, under SchedQoS, trains the
// predictor on its observed runtime. Idempotent: the second caller
// (runJob's deferred release after the watchdog already reaped, or
// vice versa) finds no charge and does nothing.
func (q *qosSched) finished(j *job) {
	q.mu.Lock()
	info, ok := q.running[j.id]
	if !ok {
		q.mu.Unlock()
		return
	}
	delete(q.running, j.id)
	if info.class == qos.ClassShort {
		q.nShort--
	} else {
		q.nLong--
	}
	predicted := info.predicted
	started := j.startedAt()
	overran := !started.IsZero() && q.clk.Since(started) > q.budget
	q.nonEmpty.Signal()
	q.mu.Unlock()
	// Train outside the lock; jobs that never started (canceled while
	// queued) carry no runtime signal.
	if q.pred != nil && !started.IsZero() {
		q.pred.Observe(j.pkey, predicted, overran)
	}
}

// demoteOverruns flips every running predicted-short job that has
// exceeded the short budget to a long-class charge and retrains its
// predictor bucket — the mid-flight demotion sweep. The flipped charge
// can exceed longCap; that deliberately stalls further long dequeues
// until the overrunner finishes. Returns how many jobs were demoted.
func (q *qosSched) demoteOverruns() int {
	q.mu.Lock()
	var demoted []*job
	for _, info := range q.running {
		if info.class != qos.ClassShort {
			continue
		}
		started := info.j.startedAt()
		if started.IsZero() || q.clk.Since(started) <= q.budget {
			continue
		}
		info.class = qos.ClassLong
		q.nShort--
		q.nLong++
		demoted = append(demoted, info.j)
	}
	q.mu.Unlock()
	for _, j := range demoted {
		j.markDemoted()
		q.pred.Demote(j.pkey)
	}
	return len(demoted)
}

func (q *qosSched) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.fq.Len()
}

func (q *qosSched) cap() int { return q.max }

// oldestWait reports the age of the oldest head-of-lane job: with
// multiple lanes the brownout signal is the worst head-of-line wait any
// tenant is experiencing.
func (q *qosSched) oldestWait() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	var oldest time.Time
	q.fq.Heads(func(j *job) {
		if oldest.IsZero() || j.submitted.Before(oldest) {
			oldest = j.submitted
		}
	})
	if oldest.IsZero() {
		return 0
	}
	return q.clk.Since(oldest)
}

// close stops admission and wakes all blocked pops. Queued jobs are
// still delivered; pop returns false once they are drained.
func (q *qosSched) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nonEmpty.Broadcast()
}

// drainPending removes and returns every queued-but-unstarted job;
// used at shutdown to cancel work that never ran.
func (q *qosSched) drainPending() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.fq.Drain()
}

// counts snapshots the scheduler's occupancy gauges: queued and running
// jobs per class.
func (q *qosSched) counts() (queuedShort, queuedLong, runningShort, runningLong int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.fq.LenClass(qos.ClassShort), q.fq.LenClass(qos.ClassLong), q.nShort, q.nLong
}
