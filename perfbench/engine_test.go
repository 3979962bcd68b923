package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A fleet that finishes every job at admission lets a run use up a short
// job list long before its deadline; the client must report that.
func TestLoadClientReportsAnExhaustedList(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"job-000001","state":"done"}`)
			return
		}
		fmt.Fprint(w, `{}`)
	}))
	defer srv.Close()
	for _, tc := range []struct {
		workload string
		dur      time.Duration
		issued   int
		want     bool
	}{
		{"solve-heavy", time.Minute, 3, true}, // closed loop runs out
		{"solve-heavy", 0, 2, false},          // deadline passes first
		{"herd-durable", time.Minute, 3, true},
		{"herd-durable", 30 * time.Millisecond, 2, false}, // arrivals at 0 and 25 ms
	} {
		w := workloadByName(tc.workload)
		d := newLoadClient(w, w.Gen(1)[:3], nil, srv.URL, 2, nil)
		outs := d.run(time.Now(), tc.dur)
		if len(outs) != tc.issued || d.exhausted != tc.want {
			t.Errorf("%s for %v: %d jobs issued, exhausted %v; want %d, %v",
				tc.workload, tc.dur, len(outs), d.exhausted, tc.issued, tc.want)
		}
	}
}
