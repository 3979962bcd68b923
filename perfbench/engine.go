package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"thermalherd/internal/server"
)

// Outcome is what the client saw of one job.
type Outcome struct {
	Job int
	ID  string
	// Due is when the job was due: its scheduled arrival in an open
	// loop, the moment its client became free in a closed loop.
	Due                    time.Time
	FirstSubmit            time.Time // first submit attempt
	SubmitStart, SubmitEnd time.Time // last submit attempt
	Observed               time.Time // terminal state first seen
	Status                 server.Status
	Polls, Retries         int
	ResultBytes            int
	// Failure is empty for a job that finished done with a result that
	// matched its golden entry.
	Failure string
}

func (o *Outcome) Latency() time.Duration { return o.Observed.Sub(o.Due) }

// Executed reports whether a worker ran the job (not a cache answer).
func (o *Outcome) Executed() bool { return !o.Status.FromCache && o.Status.StartedAt != "" }

// serverTimes parses the daemon's SubmittedAt/StartedAt/FinishedAt.
func (o *Outcome) serverTimes() (sub, start, fin time.Time, ok bool) {
	var err1, err2, err3 error
	sub, err1 = time.Parse(time.RFC3339Nano, o.Status.SubmittedAt)
	start, err2 = time.Parse(time.RFC3339Nano, o.Status.StartedAt)
	fin, err3 = time.Parse(time.RFC3339Nano, o.Status.FinishedAt)
	return sub, start, fin, err1 == nil && err2 == nil && err3 == nil
}

const (
	maxRetries = 8
	jobTimeout = 60 * time.Second
)

type step int

const (
	stepSubmit step = iota
	stepPoll
)

type task struct {
	at   time.Time
	job  int
	step step
}

type taskHeap []task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// loadClient offers a job list to a fleet over HTTP with at most `clients`
// goroutines (and so at most that many connections per host). Each
// goroutine takes the earliest due task — a submit or a status poll —
// so an open loop keeps many jobs in flight on few connections.
type loadClient struct {
	w       *Workload
	jobs    []Job
	gold    map[string]*golden
	base    string
	client  *http.Client
	clients int
	rec     *recorder

	mu       sync.Mutex
	cond     *sync.Cond
	tasks    taskHeap
	pending  int // jobs issued but not settled
	next     int // closed loop: next job to issue
	deadline time.Time
	out      map[int]*Outcome
	// exhausted is set when the list ran out before the deadline: a
	// closed loop had no job left to issue, or an open loop's arrivals
	// ended early.
	exhausted bool
}

func newLoadClient(w *Workload, jobs []Job, gold map[string]*golden, base string, clients int, rec *recorder) *loadClient {
	d := &loadClient{
		w: w, jobs: jobs, gold: gold, base: base, clients: clients, rec: rec,
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     clients,
				MaxIdleConnsPerHost: clients,
				DisableCompression:  true,
			},
		},
		out: map[int]*Outcome{},
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// run offers jobs for dur from t0 and waits until every issued job has
// settled. It returns the outcomes in job order.
func (d *loadClient) run(t0 time.Time, dur time.Duration) []*Outcome {
	d.deadline = t0.Add(dur)
	d.mu.Lock()
	if d.w.Open {
		d.exhausted = true
		for i, j := range d.jobs {
			if j.Due >= dur {
				d.exhausted = false
				break
			}
			d.issue(i, t0.Add(j.Due))
		}
	} else {
		for c := 0; c < d.clients && d.next < len(d.jobs); c++ {
			d.issue(d.next, t0)
			d.next++
		}
	}
	d.mu.Unlock()

	var wg sync.WaitGroup
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.loop()
		}()
	}
	wg.Wait()
	d.client.CloseIdleConnections()
	outs := make([]*Outcome, 0, len(d.out))
	for i := 0; i < len(d.jobs); i++ {
		if o, ok := d.out[i]; ok {
			outs = append(outs, o)
		}
	}
	return outs
}

// issue schedules job i's first submit at due. Caller holds d.mu.
func (d *loadClient) issue(i int, due time.Time) {
	d.out[i] = &Outcome{Job: i, Due: due}
	d.pending++
	heap.Push(&d.tasks, task{at: due, job: i, step: stepSubmit})
	d.cond.Broadcast()
}

func (d *loadClient) loop() {
	for {
		d.mu.Lock()
		for len(d.tasks) == 0 && d.pending > 0 {
			d.cond.Wait()
		}
		if d.pending == 0 {
			d.mu.Unlock()
			return
		}
		t := d.tasks[0]
		if wait := time.Until(t.at); wait > 0 {
			d.mu.Unlock()
			time.Sleep(wait)
			continue
		}
		heap.Pop(&d.tasks)
		o := d.out[t.job]
		d.mu.Unlock()

		var again time.Duration
		done := false
		switch t.step {
		case stepSubmit:
			again, done = d.submit(o)
		case stepPoll:
			again, done = d.poll(o)
		}
		if !done && time.Since(o.Due) > jobTimeout {
			o.Failure, done = "timed out", true
		}
		if done && o.Failure == "" {
			d.fetchResult(o)
		}

		d.mu.Lock()
		if done {
			d.pending--
			if !d.w.Open && time.Now().Before(d.deadline) {
				if d.next < len(d.jobs) {
					d.issue(d.next, time.Now())
					d.next++
				} else {
					d.exhausted = true
				}
			}
			d.cond.Broadcast()
		} else {
			next := stepPoll
			if o.ID == "" {
				next = stepSubmit
			}
			heap.Push(&d.tasks, task{at: time.Now().Add(again), job: t.job, step: next})
			d.cond.Broadcast()
		}
		d.mu.Unlock()
	}
}

func terminal(s server.State) bool {
	switch s {
	case server.StateDone, server.StateFailed, server.StateCanceled, server.StateMigrated:
		return true
	}
	return false
}

// settle records a terminal status; a state other than done is a failure.
func (d *loadClient) settle(o *Outcome, st server.Status) bool {
	o.Status = st
	if !terminal(st.State) {
		return false
	}
	o.Observed = time.Now()
	if st.State != server.StateDone {
		o.Failure = fmt.Sprintf("job %s: %s %s", st.ID, st.State, st.Error)
	}
	return true
}

// do sends one request and records it as a client span under op.
func (d *loadClient) do(op, id, method, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	var b []byte
	if err == nil {
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil && op == "submit" {
		var st struct {
			ID string `json:"id"`
		}
		json.Unmarshal(b, &st)
		id = st.ID
	}
	end := time.Now()
	d.rec.add(Span{Node: "client", Op: op, ID: id, Start: start, End: end, Header: end})
	return resp, b, err
}

// backoff is the wait before retrying a refused or failed request.
func backoff(resp *http.Response, attempt int) time.Duration {
	if resp != nil {
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			return time.Duration(s) * time.Second
		}
	}
	return time.Duration(10<<min(attempt, 5)) * time.Millisecond
}

func (d *loadClient) submit(o *Outcome) (time.Duration, bool) {
	body, _ := json.Marshal(d.jobs[o.Job].Spec)
	o.SubmitStart = time.Now()
	if o.FirstSubmit.IsZero() {
		o.FirstSubmit = o.SubmitStart
	}
	resp, b, err := d.do("submit", "", http.MethodPost, d.base+"/v1/jobs", body)
	o.SubmitEnd = time.Now()
	if err == nil && (resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK) {
		var st server.Status
		if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
			o.Failure = fmt.Sprintf("undecodable submit reply: %q", b)
			return 0, true
		}
		o.ID = st.ID
		return d.w.Poll, d.settle(o, st)
	}
	retryable := err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
	if !retryable || o.Retries >= maxRetries {
		if err == nil {
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		}
		o.Failure = fmt.Sprintf("submit refused after %d retries: %v", o.Retries, err)
		return 0, true
	}
	o.Retries++
	return backoff(resp, o.Retries), false
}

func (d *loadClient) poll(o *Outcome) (time.Duration, bool) {
	o.Polls++
	resp, b, err := d.do("status", o.ID, http.MethodGet, d.base+"/v1/jobs/"+o.ID, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		if o.Retries >= maxRetries {
			o.Failure = fmt.Sprintf("status poll failed after %d retries: %v", o.Retries, err)
			return 0, true
		}
		o.Retries++
		return backoff(resp, o.Retries), false
	}
	var st server.Status
	if err := json.Unmarshal(b, &st); err != nil {
		o.Failure = fmt.Sprintf("undecodable status: %q", b)
		return 0, true
	}
	return d.w.Poll, d.settle(o, st)
}

// fetchResult downloads a done job's result and checks it against its
// golden entry.
func (d *loadClient) fetchResult(o *Outcome) {
	var resp *http.Response
	var b []byte
	var err error
	for attempt := 0; ; attempt++ {
		resp, b, err = d.do("result", o.ID, http.MethodGet, d.base+"/v1/jobs/"+o.ID+"/result", nil)
		if err == nil && resp.StatusCode == http.StatusOK {
			break
		}
		if attempt >= maxRetries {
			o.Failure = fmt.Sprintf("result fetch failed: %v", err)
			return
		}
		time.Sleep(backoff(resp, attempt))
	}
	o.ResultBytes = len(b)
	if err := checkResult(d.gold[specKey(d.jobs[o.Job].Spec)], d.jobs[o.Job].Spec.Kind, b); err != nil {
		o.Failure = fmt.Sprintf("golden mismatch for job %d (%s %s/%s): %v",
			o.Job, d.jobs[o.Job].Spec.Kind, d.jobs[o.Job].Spec.Workload, d.jobs[o.Job].Spec.Config, err)
	}
}
