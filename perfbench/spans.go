package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark around calls into the daemons (HTTP handler middleware,
// the client's own requests); nothing inside the program is traced.
type Span struct {
	Node string // "client", "gw", or a backend name
	Op   string // submit, status, result, replica, other
	// ID is the job id as this hop knows it: the gateway's "<id>@<node>"
	// at the client and gateway, the backend-local id at a backend, the
	// replicating origin for replica appends.
	ID         string
	Start, End time.Time
	// Header is when the handler wrote its status line; End-Header is
	// the time spent encoding and writing the body.
	Header time.Time
}

func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []Span
}

func (r *recorder) add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) all() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// classify maps a request to (op, id) by the daemons' route table.
func classify(method, path string) (op, id string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 2 && parts[0] == "v1" && parts[1] == "jobs" && method == http.MethodPost:
		return "submit", ""
	case len(parts) == 3 && parts[0] == "v1" && parts[1] == "jobs" && method == http.MethodGet:
		return "status", parts[2]
	case len(parts) == 4 && parts[1] == "jobs" && parts[3] == "result":
		return "result", parts[2]
	case len(parts) == 3 && parts[1] == "replica":
		return "replica", parts[2]
	}
	return "other", ""
}

// spanWriter notes when the header goes out and keeps a submit reply's
// body so the span can learn the id the handler minted.
type spanWriter struct {
	http.ResponseWriter
	header time.Time
	keep   bool
	body   bytes.Buffer
}

func (w *spanWriter) WriteHeader(code int) {
	if w.header.IsZero() {
		w.header = time.Now()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *spanWriter) Write(b []byte) (int, error) {
	if w.header.IsZero() {
		w.header = time.Now()
	}
	if w.keep {
		w.body.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

// wrap records a span per request served by h on node.
func (r *recorder) wrap(node string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		op, id := classify(req.Method, req.URL.Path)
		sw := &spanWriter{ResponseWriter: w, keep: op == "submit"}
		start := time.Now()
		h.ServeHTTP(sw, req)
		end := time.Now()
		if op == "submit" {
			var st struct {
				ID string `json:"id"`
			}
			json.Unmarshal(sw.body.Bytes(), &st)
			id = st.ID
		}
		hdr := sw.header
		if hdr.IsZero() {
			hdr = end
		}
		r.add(Span{Node: node, Op: op, ID: id, Start: start, End: end, Header: hdr})
	})
}

// selfTime is a span's duration minus the part of it its children
// cover: children are clipped to the parent and overlaps counted once.
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				covered += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
		} else if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return parent.Dur() - covered
}

// within reports whether c lies inside p's interval.
func within(c, p Span) bool {
	return !c.Start.Before(p.Start) && !c.End.After(p.End)
}

// spanIndex finds the spans of one hop by (node, op, id).
type spanIndex map[[3]string][]Span

func indexSpans(spans []Span) spanIndex {
	ix := spanIndex{}
	for _, s := range spans {
		k := [3]string{s.Node, s.Op, s.ID}
		ix[k] = append(ix[k], s)
	}
	return ix
}

// children returns the spans under parent one hop down: backend spans
// of the same job for a gateway span, gateway or backend spans for a
// client span.
func (ix spanIndex) children(parent Span, node, id string) []Span {
	var out []Span
	for _, s := range ix[[3]string{node, parent.Op, id}] {
		if within(s, parent) {
			out = append(out, s)
		}
	}
	return out
}
