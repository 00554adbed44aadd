package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"strings"
	"time"

	"disksig/internal/core"
	"disksig/internal/faultinject"
	"disksig/internal/fleet"
	"disksig/internal/loadgen"
	"disksig/internal/monitor"
	"disksig/internal/parallel"
	"disksig/internal/server"
	"disksig/internal/smart"
	"disksig/internal/synth"
)

// runSelftest proves the serving subsystem end-to-end: it replays a
// synthetic held-out fleet (with injected faults) through the real HTTP
// layer in batches and through an in-process monitor, and requires both
// replays to produce exactly the same alerts and quarantine accounting.
// It also exercises the API's error paths (400, 404) and checks the
// /metrics invariant ingested = kept + quarantined.
func runSelftest(ch *core.Characterization, store *fleet.Store, srv *server.Server, scale synth.Scale, seed int64) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	base := "http://" + l.Addr().String()
	log.Printf("selftest: serving on %s", base)

	// The in-process reference: the same trained models, the same
	// monitor configuration as the store's shards.
	models, norms, err := monitor.ModelsFromCharacterization(ch)
	if err != nil {
		return err
	}
	ref, err := monitor.NewMulti(models, norms, monitor.Config{})
	if err != nil {
		return err
	}

	// A held-out fleet the models never saw, with deterministic fault
	// injection (garbled values, duplicated and reordered hours) so the
	// quarantine path is exercised over the wire too.
	replayCfg := synth.DefaultConfig(scale)
	replayCfg.Seed = seed + 1000
	replayDS, err := synth.Generate(replayCfg)
	if err != nil {
		return err
	}
	const (
		maxFailed   = 15
		maxGood     = 40
		corruptRate = 0.02
		batchSize   = 500
	)
	type replayDrive struct {
		serial string
		refID  int
		recs   []smart.Record
	}
	var drives []replayDrive
	// The reference monitor's drive ID is the drive's position in the
	// replay: monitor IDs index a slice, so they must be dense. faultKey
	// only seeds the drive's corruption stream.
	add := func(p *smart.Profile, serial string, faultKey int) {
		recs, _ := faultinject.CorruptRecords(p.Records, faultinject.Config{
			Seed:          parallel.DeriveSeed(seed, int64(faultKey)),
			GarbleRate:    corruptRate,
			DuplicateRate: corruptRate,
			ReorderRate:   corruptRate,
		})
		drives = append(drives, replayDrive{serial: serial, refID: len(drives), recs: recs})
	}
	for i, p := range replayDS.Failed {
		if i >= maxFailed {
			break
		}
		add(p, fmt.Sprintf("failed-%05d", p.DriveID), p.DriveID)
	}
	for i, p := range replayDS.Good {
		if i >= maxGood {
			break
		}
		add(p, fmt.Sprintf("good-%05d", p.DriveID), p.DriveID+1_000_000)
	}

	// Interleave the drives round-robin, the arrival pattern of a real
	// fleet: batch boundaries cut across drives, per-drive order holds.
	type obs struct {
		serial string
		refID  int
		values []*float64 // wire form: nil = non-finite
		hour   int
	}
	var stream []obs
	for step := 0; ; step++ {
		any := false
		for _, d := range drives {
			if step >= len(d.recs) {
				continue
			}
			any = true
			rec := d.recs[step]
			stream = append(stream, obs{serial: d.serial, refID: d.refID, values: toWire(rec.Values), hour: rec.Hour})
		}
		if !any {
			break
		}
	}
	log.Printf("selftest: replaying %d drives, %d records, corruption rate %g", len(drives), len(stream), corruptRate)

	// In-process reference replay. The reference ingests exactly what
	// the server will decode (the wire round-trip maps every non-finite
	// value to NaN), so any divergence is the serving layer's fault.
	var refAlerts []string
	for _, o := range stream {
		rec := smart.Record{Hour: o.hour, Values: fromWire(o.values)}
		if a, _ := ref.IngestClass(o.refID, smart.HDD, rec); a != nil {
			refAlerts = append(refAlerts, loadgen.AlertKey(o.serial, a.Hour, a.Severity.String(), a.Group, a.Type.String(), a.Degradation))
		}
	}

	// HTTP replay in batches.
	var httpAlerts []string
	for lo := 0; lo < len(stream); lo += batchSize {
		hi := min(lo+batchSize, len(stream))
		records := make([]map[string]any, 0, hi-lo)
		for _, o := range stream[lo:hi] {
			records = append(records, map[string]any{"serial": o.serial, "hour": o.hour, "values": o.values})
		}
		body, err := json.Marshal(map[string]any{"records": records})
		if err != nil {
			return err
		}
		resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var doc struct {
			Ingested    int `json:"ingested"`
			Kept        int `json:"kept"`
			Quarantined int `json:"quarantined"`
			Alerts      []struct {
				Serial      string  `json:"serial"`
				Hour        int     `json:"hour"`
				Severity    string  `json:"severity"`
				Group       int     `json:"group"`
				Type        string  `json:"type"`
				Degradation float64 `json:"degradation"`
			} `json:"alerts"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("ingest batch at %d: status %d", lo, resp.StatusCode)
		}
		if err != nil {
			return fmt.Errorf("ingest batch at %d: decoding response: %w", lo, err)
		}
		if doc.Ingested != hi-lo || doc.Ingested != doc.Kept+doc.Quarantined {
			return fmt.Errorf("ingest batch at %d: accounting %d = %d + %d violated (sent %d)",
				lo, doc.Ingested, doc.Kept, doc.Quarantined, hi-lo)
		}
		for _, a := range doc.Alerts {
			httpAlerts = append(httpAlerts, loadgen.AlertKey(a.Serial, a.Hour, a.Severity, a.Group, a.Type, a.Degradation))
		}
	}

	// 1. Alert parity: the HTTP replay must raise exactly the in-process
	// alerts (order within a batch is submission order; compare as a
	// multiset to stay independent of batch boundaries).
	if len(refAlerts) == 0 {
		return fmt.Errorf("reference replay raised no alerts; selftest is vacuous")
	}
	if err := loadgen.CompareAlerts("in-process", "HTTP", refAlerts, httpAlerts, false); err != nil {
		return err
	}
	log.Printf("selftest: %d alerts identical across HTTP and in-process replay", len(refAlerts))

	// 2. Per-drive status parity.
	for _, d := range drives {
		want, wantOK := ref.Status(d.refID)
		got, code, err := fetchDrive(base, d.serial)
		if err != nil {
			return err
		}
		if gotOK := code == http.StatusOK; gotOK != wantOK {
			return fmt.Errorf("drive %s: HTTP status %d, in-process tracked=%v", d.serial, code, wantOK)
		}
		if !wantOK {
			continue
		}
		if got.Severity != want.Severity.String() || got.LastHour != want.LastHour ||
			math.Abs(got.Degradation-want.Degradation) > 0 {
			return fmt.Errorf("drive %s: HTTP %+v != in-process %+v", d.serial, got, want)
		}
	}
	log.Printf("selftest: %d per-drive statuses identical", len(drives))

	// 3. Metrics invariant and quarantine parity.
	var met struct {
		Ingest struct {
			Ingested    int64 `json:"rows_ingested"`
			Kept        int64 `json:"rows_kept"`
			Quarantined int64 `json:"rows_quarantined"`
		} `json:"ingest"`
		Fleet struct {
			Drives int `json:"drives"`
		} `json:"fleet"`
	}
	if err := fetchJSON(base+"/metrics", &met); err != nil {
		return err
	}
	if met.Ingest.Ingested != met.Ingest.Kept+met.Ingest.Quarantined {
		return fmt.Errorf("/metrics invariant violated: %d != %d + %d",
			met.Ingest.Ingested, met.Ingest.Kept, met.Ingest.Quarantined)
	}
	if met.Ingest.Ingested != int64(len(stream)) {
		return fmt.Errorf("/metrics rows_ingested = %d, sent %d", met.Ingest.Ingested, len(stream))
	}
	refQ := ref.Quality()
	if met.Ingest.Quarantined != int64(refQ.RowsQuarantined) {
		return fmt.Errorf("/metrics rows_quarantined = %d, in-process quarantined %d",
			met.Ingest.Quarantined, refQ.RowsQuarantined)
	}
	if store.Tracked() != ref.Tracked() {
		return fmt.Errorf("store tracks %d drives, in-process monitor %d", store.Tracked(), ref.Tracked())
	}
	if met.Fleet.Drives != ref.Tracked() {
		return fmt.Errorf("/metrics fleet drives = %d, in-process tracked %d", met.Fleet.Drives, ref.Tracked())
	}
	log.Printf("selftest: /metrics invariant holds (%d = %d kept + %d quarantined)",
		met.Ingest.Ingested, met.Ingest.Kept, met.Ingest.Quarantined)

	// 4. Error paths stay errors.
	resp, err := http.Post(base+"/v1/ingest", "application/json", strings.NewReader("{not json"))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/drives/no-such-serial")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("unknown drive: status %d, want 404", resp.StatusCode)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := fetchJSON(base+"/healthz", &hz); err != nil {
		return err
	}
	if hz.Status != "ok" {
		return fmt.Errorf("/healthz status %q, want ok", hz.Status)
	}
	return nil
}

// toWire converts values to the API's wire form: non-finite values
// become null (JSON cannot carry NaN/Inf).
func toWire(v smart.Values) []*float64 {
	out := make([]*float64, len(v))
	for a := range v {
		if !math.IsNaN(v[a]) && !math.IsInf(v[a], 0) {
			x := v[a]
			out[a] = &x
		}
	}
	return out
}

// fromWire decodes the wire form back the way the server does.
func fromWire(w []*float64) smart.Values {
	var v smart.Values
	for a, p := range w {
		if p == nil {
			v[a] = math.NaN()
		} else {
			v[a] = *p
		}
	}
	return v
}

type driveDoc struct {
	Serial      string  `json:"serial"`
	LastHour    int     `json:"last_hour"`
	Severity    string  `json:"severity"`
	Degradation float64 `json:"degradation"`
}

func fetchDrive(base, serial string) (driveDoc, int, error) {
	var doc driveDoc
	resp, err := http.Get(base + "/v1/drives/" + serial)
	if err != nil {
		return doc, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return doc, resp.StatusCode, err
		}
	}
	return doc, resp.StatusCode, nil
}

func fetchJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
