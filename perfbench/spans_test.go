package main

import (
	"testing"
	"time"
)

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(a, b int) Span { return Span{Start: at(a), End: at(b)} }

	// client [0,100] ⊃ gateway [10,90] ⊃ backend [20,50] and [40,70]
	// (overlapping hedged attempts) and a child sticking out [85,95].
	client := span(0, 100)
	gw := span(10, 90)
	kids := []Span{span(20, 50), span(40, 70), span(85, 95)}

	if got := selfTime(client, []Span{gw}); got != 20*time.Millisecond {
		t.Errorf("client self = %v, want 20ms", got)
	}
	// Covered: [20,70] once plus [85,90] clipped = 55ms of 80ms.
	if got := selfTime(gw, kids); got != 25*time.Millisecond {
		t.Errorf("gateway self = %v, want 25ms", got)
	}
	if got := selfTime(kids[0], nil); got != 30*time.Millisecond {
		t.Errorf("leaf self = %v, want its duration 30ms", got)
	}
	if got := selfTime(gw, []Span{span(0, 5)}); got != gw.Dur() {
		t.Errorf("a child outside the parent changed its self time: %v", got)
	}
}

func TestClassifyRoutes(t *testing.T) {
	for _, c := range []struct{ method, path, op, id string }{
		{"POST", "/v1/jobs", "submit", ""},
		{"GET", "/v1/jobs/job-000003@n1", "status", "job-000003@n1"},
		{"GET", "/v1/jobs/job-000003/result", "result", "job-000003"},
		{"POST", "/v1/replica/n2", "replica", "n2"},
		{"GET", "/metrics", "other", ""},
	} {
		if op, id := classify(c.method, c.path); op != c.op || id != c.id {
			t.Errorf("classify(%s %s) = %s %q, want %s %q", c.method, c.path, op, id, c.op, c.id)
		}
	}
}

func TestIndexChildrenMatchesJobAndTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := Span{Node: "gw", Op: "submit", ID: "job-1@n0", Start: at(0), End: at(10)}
	ix := indexSpans([]Span{
		{Node: "n0", Op: "submit", ID: "job-1", Start: at(1), End: at(9)},
		{Node: "n0", Op: "submit", ID: "job-2", Start: at(1), End: at(9)},  // other job
		{Node: "n0", Op: "submit", ID: "job-1", Start: at(8), End: at(12)}, // outside
	})
	if got := ix.children(parent, "n0", "job-1"); len(got) != 1 || !got[0].End.Equal(at(9)) {
		t.Errorf("children = %+v, want the one job-1 span inside the parent", got)
	}
}
