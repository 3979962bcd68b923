package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// TestThermalJobProgress: a thermal job simulates once and reports the
// solve as its second unit, so its progress is 0/2, 1/2, 2/2 and
// never reaches 2/2 before the solve.
func TestThermalJobProgress(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheSize: 2})
	spec := Spec{Kind: KindThermal, Config: "3D", Workload: "bitcount",
		Depths: Depths{FastForward: 20000, Warmup: 5000, Measure: 5000, Grid: 8}}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	var got []string
	report := func(done, total int) { got = append(got, fmt.Sprintf("%d/%d", done, total)) }
	if _, err := s.runSpec(context.Background(), spec, report); err != nil {
		t.Fatal(err)
	}
	if want := []string{"0/2", "1/2", "2/2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("progress %v, want %v", got, want)
	}
}

// TestGridCapAtAdmission: a grid above maxGrid is refused with 400 when
// submitted, alone or in a batch, before any executor runs; maxGrid
// itself is admitted.
func TestGridCapAtAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	stubExec(s, func(context.Context, Spec, progressFunc) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil // allocates no grid
	})
	spec := func(grid int) string {
		return fmt.Sprintf(`{"kind":"thermal","workload":"mcf","depths":{"grid":%d}}`, grid)
	}
	resp, _ := postJob(t, ts, spec(maxGrid+1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("grid %d: status = %s, want 400", maxGrid+1, resp.Status)
	}
	_, batch := submitBatch(t, ts.URL, `{"jobs":[`+spec(1<<20)+`]}`)
	if len(batch.Jobs) != 1 || batch.Jobs[0].Code != http.StatusBadRequest {
		t.Errorf("batch grid %d: %+v, want one item refused with 400", 1<<20, batch.Jobs)
	}
	doc := metricsDoc(t, ts)
	if n := counter(t, doc, "jobs", "submitted"); n != 0 {
		t.Errorf("jobs.submitted = %v after refused grids, want 0", n)
	}

	resp, st := postJob(t, ts, spec(maxGrid))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("grid %d: status = %s, want 202", maxGrid, resp.Status)
	}
	waitState(t, ts, st.ID, StateDone)
}
