package loadgen

import (
	"context"
	"fmt"
	"os"
	"time"

	"disksig/internal/core"
	"disksig/internal/dataset"
	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/quality"
	"disksig/internal/server"
	"disksig/internal/smart"
	"disksig/internal/synth"
)

// RunBackblaze is the real-data scenario: a Backblaze-format daily dump
// (the public fleet telemetry format, HDD and SSD rows mixed) is read
// under the lenient quality policy, its reader ledger is checked for
// exact kept + quarantined + dropped balance, and the surviving drives
// are replayed through the real HTTP stack against per-class models
// trained on the synthetic fleet — verified record-for-record against a
// shadow. The default input is the checked-in sample dump, which
// carries both device classes and a handful of defective rows so every
// quarantine path is exercised.
func RunBackblaze(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	rep := &ScenarioReport{Name: "backblaze"}
	if cfg.BackblazePath == "" {
		return rep, fmt.Errorf("loadgen: backblaze scenario needs BackblazePath")
	}
	f, err := os.Open(cfg.BackblazePath)
	if err != nil {
		return rep, err
	}
	ds, qrep, err := dataset.ReadBackblazeCSVQ(f, quality.Config{})
	f.Close()
	if err != nil {
		return rep, fmt.Errorf("loadgen: reading %s: %w", cfg.BackblazePath, err)
	}
	brep := &BackblazeReport{
		RowsRead:        qrep.RowsRead,
		RowsKept:        qrep.RowsKept(),
		RowsQuarantined: qrep.RowsQuarantined,
		RowsDropped:     qrep.RowsDropped,
	}
	rep.Backblaze = brep

	// The reader's ledger must balance exactly: every CSV row is kept,
	// quarantined or dropped, nothing double-counted, nothing lost.
	var accErr error
	if brep.RowsRead != brep.RowsKept+brep.RowsQuarantined+brep.RowsDropped {
		accErr = fmt.Errorf("reader ledger does not balance: read %d != kept %d + quarantined %d + dropped %d",
			brep.RowsRead, brep.RowsKept, brep.RowsQuarantined, brep.RowsDropped)
	}
	rep.addCheck("reader-accounting", accErr)
	var defectErr error
	if brep.RowsQuarantined == 0 || brep.RowsDropped == 0 {
		defectErr = fmt.Errorf("dump exercised no defect path: %d quarantined, %d dropped (the sample carries defective rows)",
			brep.RowsQuarantined, brep.RowsDropped)
	}
	rep.addCheck("defects-detected", defectErr)

	// Map the dataset onto replayable drives. Serials are derived from
	// the deterministic drive IDs, so two reads of the same dump build
	// byte-identical workloads.
	var drives []Drive
	for _, pop := range [][]*smart.Profile{ds.Failed, ds.Good} {
		for _, p := range pop {
			drives = append(drives, Drive{
				Serial:  fmt.Sprintf("bb-%05d", p.DriveID),
				Class:   p.Class,
				Records: p.Records,
			})
			if p.Class == smart.SSD {
				brep.SSDDrives++
			} else {
				brep.HDDDrives++
			}
		}
	}
	brep.Drives = len(drives)
	var classErr error
	if brep.HDDDrives == 0 || brep.SSDDrives == 0 {
		classErr = fmt.Errorf("class detection found %d HDD and %d SSD drives (the sample carries both)",
			brep.HDDDrives, brep.SSDDrives)
	}
	rep.addCheck("both-classes-detected", classErr)
	wl := WorkloadFromDrives(drives, 100)

	// The serving models come from the synthetic mixed fleet: real
	// telemetry scored against trained per-class signatures, exactly the
	// production posture of a monitor meeting a new fleet.
	tds, err := synth.GenerateMixed(synth.DefaultMixedFleet(cfg.Workload.Scale).WithSeed(cfg.Workload.Seed))
	if err != nil {
		return rep, err
	}
	mc, err := core.CharacterizeMixed(tds, core.Config{Seed: cfg.Workload.Seed, Workers: dep.Workers})
	if err != nil {
		return rep, err
	}
	models, norms, err := monitor.ModelsFromMixed(mc)
	if err != nil {
		return rep, err
	}
	shadow, err := NewShadow(models, norms, fleet.Config{Monitor: dep.Monitor})
	if err != nil {
		return rep, err
	}
	h, err := StartHarness(models, norms, dep.fleetConfig(), server.Config{MaxInFlight: 256})
	if err != nil {
		return rep, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		h.Stop(sctx)
	}()
	drv := &Driver{BaseURL: h.URL, Log: dep.Log}

	clients := cfg.clients()
	queues := wl.Split(clients)
	rep.WorkloadFingerprint = Fingerprint(queues)
	rep.Drives = len(wl.Drives)

	stats, err := drv.Run(ctx, Phase{Name: "backblaze-replay", Clients: clients}, queues)
	if stats != nil {
		rep.Phases = append(rep.Phases, stats)
		rep.Records += stats.RecordsSent
		rep.Alerts = len(stats.AlertKeys)
	}
	if err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return rep, nil
	}
	if err := shadow.ApplyChunk(queues); err != nil {
		rep.addCheck("shadow", err)
		rep.finish()
		return rep, nil
	}

	rep.addCheck("final-state-matches-shadow",
		CompareStates("shadow", "served", shadow.State(), CanonicalState(h.Store)))
	rep.addCheck("alerts-match-shadow",
		CompareAlerts("shadow", "http", shadow.AlertKeys(), stats.AlertKeys, false))
	_, kept, _, merr := MetricsInvariant(h.URL, int64(CountRecords(queues)))
	rep.addCheck("metrics-invariant", merr)
	brep.IngestKept = kept

	// Per-class ingest counters must reflect the detected populations.
	brep.IngestHDD, brep.IngestSSD = classIngestRows(h.URL)
	var rowsErr error
	if brep.HDDDrives > 0 && brep.IngestHDD == 0 {
		rowsErr = fmt.Errorf("%d HDD drives replayed but rows_hdd is 0", brep.HDDDrives)
	} else if brep.SSDDrives > 0 && brep.IngestSSD == 0 {
		rowsErr = fmt.Errorf("%d SSD drives replayed but rows_ssd is 0", brep.SSDDrives)
	}
	rep.addCheck("per-class-ingest-counters", rowsErr)

	brep.Fingerprint = StateFingerprint(CanonicalState(h.Store))
	rep.SummaryFingerprint = brep.Fingerprint
	rep.finish()
	return rep, nil
}
