package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/regression"
	"disksig/internal/smart"
)

// wirePredictor scores by a configurable attribute. Unlike rampPredictor
// it carries an exported field, which gob requires to round-trip a
// predictor through a snapshot as an interface value.
type wirePredictor struct{ Attr int }

func (p wirePredictor) Predict(x []float64) float64 { return x[p.Attr] }

func init() { gob.Register(wirePredictor{}) }

// persistStore is testStore with a snapshot-serializable predictor.
func persistStore(t *testing.T, cfg fleet.Config) *fleet.Store {
	t.Helper()
	norm := smart.NewNormalizer()
	var lo, hi smart.Values
	for a := range lo {
		lo[a] = -1
		hi[a] = 1
	}
	norm.Observe(lo)
	norm.Observe(hi)
	models := []monitor.GroupModel{{
		Group:     1,
		Type:      core.Logical,
		Form:      regression.FormQuadratic,
		WindowD:   12,
		Predictor: wirePredictor{Attr: int(smart.RRER)},
	}}
	s, err := fleet.New(models, monitor.ClassNorms{HDD: norm}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		wait time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Millisecond, 1}, // sub-second must not truncate to 0
		{10 * time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2}, // round up, not down
		{2 * time.Second, 2},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.wait); got != c.want {
			t.Errorf("retryAfterSeconds(%s) = %d, want %d", c.wait, got, c.want)
		}
		if got := retryAfterSeconds(c.wait); got < 1 {
			t.Errorf("retryAfterSeconds(%s) = %d; Retry-After below 1s invites a retry storm", c.wait, got)
		}
	}
}

// A shed request with a sub-second queue budget must still advertise a
// whole, nonzero Retry-After — "Retry-After: 0" tells clients to hammer
// an already overloaded server.
func TestRetryAfterNeverZeroUnderSubSecondQueueWait(t *testing.T) {
	srv := testServer(t, fleet.Config{}, Config{MaxInFlight: 1, QueueWait: 10 * time.Millisecond})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testHoldIngest = func() {
		close(entered)
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
			bytes.NewReader(ingestBody(t, [3]any{"SER-1", 0, 0.9})))
		if err == nil {
			resp.Body.Close()
		}
		firstDone <- err
	}()
	<-entered
	defer func() {
		close(release)
		if err := <-firstDone; err != nil {
			t.Fatal(err)
		}
	}()

	resp, err := http.Get(ts.URL + "/v1/fleet/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status under load = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if secs < 1 {
		t.Fatalf("Retry-After = %d with QueueWait=10ms, want >= 1", secs)
	}
}

// infinityBody builds a raw ingest body by hand: 1e999 overflows
// float64, so it cannot be produced by marshaling Go values — the wire
// is the only place it exists.
func infinityBody(t *testing.T, badValue string) []byte {
	t.Helper()
	zeros := make([]string, int(smart.NumAttrs))
	for i := range zeros {
		zeros[i] = "0"
	}
	bad := make([]string, int(smart.NumAttrs))
	copy(bad, zeros)
	bad[smart.RRER] = badValue
	return []byte(fmt.Sprintf(
		`{"records":[{"serial":"INF-1","hour":0,"values":[%s]},{"serial":"OK-1","hour":0,"values":[%s]}]}`,
		strings.Join(bad, ","), strings.Join(zeros, ",")))
}

func TestIngestRejectsInfinityOnTheWire(t *testing.T) {
	for _, badValue := range []string{"1e999", "-1e999", "1e400"} {
		t.Run(badValue, func(t *testing.T) {
			srv := testServer(t, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}}, Config{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
				bytes.NewReader(infinityBody(t, badValue)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			// The defect is per-record: the batch succeeds, the record
			// is quarantined (not silently coerced to +Inf and scored).
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, want 200 (per-record quarantine, not batch failure)", resp.StatusCode)
			}
			doc := decodeJSON(t, resp.Body)
			if got := doc["quarantined"].(float64); got != 1 {
				t.Fatalf("quarantined = %v, want 1", got)
			}
			if got := doc["kept"].(float64); got != 1 {
				t.Fatalf("kept = %v, want 1", got)
			}
			byKind := doc["quality"].(map[string]any)["by_kind"].(map[string]any)
			if got := byKind["non-finite"]; got != float64(1) {
				t.Fatalf("by_kind[non-finite] = %v, want 1 (ledger must name the defect)", got)
			}

			// The overflowing drive never entered the store; the clean
			// record in the same batch did.
			r, err := http.Get(ts.URL + "/v1/drives/INF-1")
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != http.StatusNotFound {
				t.Errorf("GET /v1/drives/INF-1 = %d, want 404", r.StatusCode)
			}
			r, err = http.Get(ts.URL + "/v1/drives/OK-1")
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				t.Errorf("GET /v1/drives/OK-1 = %d, want 200", r.StatusCode)
			}
		})
	}
}

// TestIngestJSONHourOutsideInt32 sends a JSON record whose hour the WAL
// record cannot carry: it is quarantined alone, and the rest of the
// batch is logged and kept.
func TestIngestJSONHourOutsideInt32(t *testing.T) {
	mgr, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := New(persistStore(t, fleet.Config{Shards: 2}), Config{Persist: mgr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := ingestBody(t, [3]any{"SER-1", 0, 0.9}, [3]any{"FAR-1", 1 << 31, 0.9}, [3]any{"SER-2", 0, 0.8})
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (per-record quarantine, not batch failure)", resp.StatusCode)
	}
	doc := decodeJSON(t, resp.Body)
	if doc["kept"].(float64) != 2 || doc["quarantined"].(float64) != 1 {
		t.Fatalf("kept/quarantined = %v/%v, want 2/1", doc["kept"], doc["quarantined"])
	}
	if got := doc["quality"].(map[string]any)["by_kind"].(map[string]any)["bad-field"]; got != float64(1) {
		t.Fatalf("by_kind[bad-field] = %v, want 1", got)
	}
	if st := mgr.Stats(); st.WALBatches != 1 || st.WALRows != 2 {
		t.Fatalf("WAL logged %d batches / %d rows, want 1 / 2", st.WALBatches, st.WALRows)
	}
}

func TestAdminSnapshotNotFoundWithoutPersist(t *testing.T) {
	srv := testServer(t, fleet.Config{}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/admin/snapshot without persistence = %d, want 404", resp.StatusCode)
	}
}

// The full durable-server loop: ingest over HTTP (WAL), snapshot via the
// admin endpoint, ingest more (WAL after snapshot), kill, and restore a
// bit-identical fleet.
func TestAdminSnapshotAndWarmRestartParity(t *testing.T) {
	dir := t.TempDir()
	fcfg := fleet.Config{Shards: 4, Monitor: monitor.Config{Smoothing: 1}}
	m1, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := persistStore(t, fcfg)
	srv := New(store, Config{Persist: m1})
	ts := httptest.NewServer(srv.Handler())

	post := func(body []byte) map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status = %d, want 200", resp.StatusCode)
		}
		return decodeJSON(t, resp.Body)
	}

	post(ingestBody(t,
		[3]any{"SER-1", 0, 0.9},
		[3]any{"SER-2", 0, 0.9},
	))

	resp, err := http.Post(ts.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := decodeJSON(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/admin/snapshot = %d, want 200", resp.StatusCode)
	}
	if got := snap["drives"].(float64); got != 2 {
		t.Errorf("snapshot drives = %v, want 2", got)
	}
	if snap["bytes"].(float64) <= 0 {
		t.Errorf("snapshot bytes = %v, want > 0", snap["bytes"])
	}

	// Post-snapshot traffic lives only in the WAL until restore.
	post(ingestBody(t,
		[3]any{"SER-1", 1, -0.9}, // escalates to critical
		[3]any{"SER-3", 0, 0.9},
	))

	// Persistence counters are part of /metrics when a Manager is wired.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := decodeJSON(t, mresp.Body)
	mresp.Body.Close()
	ps, ok := metrics["persist"].(map[string]any)
	if !ok {
		t.Fatalf("metrics has no persist section: %v", metrics)
	}
	if got := ps["snapshots"].(float64); got != 1 {
		t.Errorf("metrics persist.snapshots = %v, want 1", got)
	}
	if got := ps["wal_batches"].(float64); got != 2 {
		t.Errorf("metrics persist.wal_batches = %v, want 2", got)
	}
	if got := ps["wal_rows"].(float64); got != 4 {
		t.Errorf("metrics persist.wal_rows = %v, want 4", got)
	}

	want := store.ExportState()
	want.Quality.StripDiagnostics()

	// Kill: abandon the server and manager without Close — nothing is
	// buffered, so the state directory is what a crash would leave.
	ts.Close()

	m2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	restored, rec, err := m2.Restore(fleet.Config{Shards: 16, Monitor: fcfg.Monitor})
	if err != nil {
		t.Fatal(err)
	}
	if rec.WALBatches != 1 || rec.TornTail {
		t.Fatalf("recovery = %+v, want 1 clean WAL batch replayed", rec)
	}
	got := restored.ExportState()
	got.Quality.StripDiagnostics()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored fleet state differs from pre-kill state\n got: %+v\nwant: %+v", got, want)
	}

	// The restored store serves the same answers over HTTP.
	srv2 := New(restored, Config{Persist: m2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	r, err := http.Get(ts2.URL + "/v1/drives/SER-1")
	if err != nil {
		t.Fatal(err)
	}
	doc := decodeJSON(t, r.Body)
	r.Body.Close()
	if doc["severity"] != "critical" {
		t.Fatalf("restored SER-1 severity = %v, want critical", doc["severity"])
	}
}
