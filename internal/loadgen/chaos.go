package loadgen

import (
	"context"
	"fmt"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/persist"
	"disksig/internal/server"
)

// RunChaos is the kill/warm-restart schedule (see killRestartDrill)
// over the deployment's trained models. The scenario passes only if the
// restored store matches the shadow monitor record-for-record at the
// kill point, keeps its model version, and the replay then finishes
// with the final state, alert stream and metrics ledger all matching
// the shadow.
func RunChaos(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	rep := &ScenarioReport{Name: "chaos"}
	if cfg.ChaosStateDir == "" {
		return rep, fmt.Errorf("loadgen: chaos scenario needs ChaosStateDir")
	}
	wl, err := BuildWorkload(cfg.Workload)
	if err != nil {
		return rep, err
	}
	return rep, killRestartDrill(ctx, dep, cfg, wl, rep, nil)
}

// killRestartDrill replays wl against dep's model sets: a persisted
// server ingests the first part of the stream (with a mid-stream
// snapshot so recovery mixes snapshot and WAL replay), is killed
// mid-stream — the HTTP layer drains like SIGTERM, but the state
// directory is abandoned without a final snapshot or a clean close,
// exactly what a crash leaves behind — then warm-restarts at a
// different shard count and finishes the stream, verified against a
// shadow the whole way. Phases and checks land in rep, which the drill
// finishes. A phase, kill, restore or restart failure is a failed check
// that ends the drill early; setup failures are returned. extra, when
// non-nil, adds checks against the restarted server's URL after the
// drill's own.
func killRestartDrill(ctx context.Context, dep Deployment, cfg ScenarioConfig, wl *Workload, rep *ScenarioReport, extra func(url string)) error {
	shadow, err := NewShadow(dep.Models, dep.Norms, fleet.Config{Monitor: dep.Monitor})
	if err != nil {
		return err
	}

	// Process 1: a persisted store, seed-snapshotted before serving so
	// the trained models are durable from the first batch.
	mgr, err := persist.Open(cfg.ChaosStateDir)
	if err != nil {
		return err
	}
	store, err := fleet.New(dep.Models, dep.Norms, dep.fleetConfig())
	if err != nil {
		return err
	}
	if _, err := mgr.Snapshot(store); err != nil {
		return fmt.Errorf("loadgen: seed snapshot: %w", err)
	}
	h1, err := StartHarnessStore(store, server.Config{MaxInFlight: 256, Persist: mgr})
	if err != nil {
		return err
	}
	drv := &Driver{BaseURL: h1.URL, Log: dep.Log}

	clients := cfg.clients()
	queues := wl.Split(clients)
	rep.WorkloadFingerprint = Fingerprint(queues)
	rep.Drives = len(wl.Drives)
	// Three chunks: ingested-then-snapshotted, ingested-into-WAL-only,
	// and post-restore. The kill lands between chunks 1 and 2, so
	// recovery must replay exactly chunk 1's batches from the WAL.
	chunks := ChunkQueues(queues, 3)

	var alerts []string
	runPhase := func(name string, chunk [][]*Batch) error {
		stats, err := drv.Run(ctx, Phase{Name: name, Clients: clients}, chunk)
		if stats != nil {
			rep.Phases = append(rep.Phases, stats)
			alerts = append(alerts, stats.AlertKeys...)
			rep.Records += stats.RecordsSent
		}
		if err != nil {
			return err
		}
		return shadow.ApplyChunk(chunk)
	}

	if err := runPhase("pre-snapshot", chunks[0]); err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return nil
	}
	if err := AdminSnapshot(h1.URL); err != nil {
		rep.addCheck("mid-stream-snapshot", err)
		rep.finish()
		return nil
	}
	if err := runPhase("pre-kill", chunks[1]); err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return nil
	}

	// Kill: drain the HTTP layer (SIGTERM semantics for in-flight
	// requests), then abandon the persist manager — no final snapshot,
	// no Close. The WAL alone carries chunk 1.
	versionBefore := h1.Store.ModelVersion()
	killCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = h1.Stop(killCtx)
	cancel()
	if err != nil {
		rep.addCheck("kill", err)
		rep.finish()
		return nil
	}

	// Warm restart at a different shard count.
	shardsBefore := h1.Store.Shards()
	restoredCfg := dep.fleetConfig()
	restoredCfg.Shards = shardsBefore * 2
	store2, mgr2, rec, restoreDur, err := RestoreStore(cfg.ChaosStateDir, restoredCfg)
	if err != nil {
		rep.addCheck("restore", err)
		rep.finish()
		return nil
	}
	defer mgr2.Close()
	rep.Recovery = &RecoveryReport{
		RestoreMs:      float64(restoreDur) / float64(time.Millisecond),
		SnapshotDrives: rec.SnapshotDrives,
		WALBatches:     rec.WALBatches,
		WALRows:        rec.WALRows,
		ShardsBefore:   shardsBefore,
		ShardsAfter:    store2.Shards(),
	}

	// The restored store must match the shadow at the kill point,
	// record for record, and recovery must have been clean: exactly the
	// WAL-only chunk replayed, no torn tail, no stale WAL.
	rep.addCheck("restored-state-matches-shadow",
		CompareStates("shadow@kill", "restored", shadow.State(), CanonicalState(store2)))
	var recErr error
	wantBatches := 0
	for _, q := range chunks[1] {
		wantBatches += len(q)
	}
	if rec.TornTail || rec.StaleWAL {
		recErr = fmt.Errorf("clean kill recovered with TornTail=%v StaleWAL=%v", rec.TornTail, rec.StaleWAL)
	} else if rec.WALBatches != wantBatches {
		recErr = fmt.Errorf("recovery replayed %d WAL batches, want %d (the post-snapshot chunk)", rec.WALBatches, wantBatches)
	}
	rep.addCheck("recovery-accounting", recErr)
	var verErr error
	if got := store2.ModelVersion(); got != versionBefore {
		verErr = fmt.Errorf("restored model version %d, want %d (the serving model sets must survive the restart)", got, versionBefore)
	}
	rep.addCheck("model-version-preserved", verErr)

	// Process 2: finish the stream against the restored store.
	h2, err := StartHarnessStore(store2, server.Config{MaxInFlight: 256, Persist: mgr2})
	if err != nil {
		rep.addCheck("restart", err)
		rep.finish()
		return nil
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		h2.Stop(sctx)
	}()
	drv.SetBaseURL(h2.URL)
	if err := runPhase("post-restore", chunks[2]); err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return nil
	}
	rep.Alerts = len(alerts)

	rep.addCheck("final-state-matches-shadow",
		CompareStates("shadow", "restored+replayed", shadow.State(), CanonicalState(store2)))
	rep.addCheck("alerts-match-shadow",
		CompareAlerts("shadow", "http", shadow.AlertKeys(), alerts, false))
	// Metrics counters restart with the process: the second server has
	// seen exactly the post-restore chunk.
	_, _, _, merr := MetricsInvariant(h2.URL, int64(CountRecords(chunks[2])))
	rep.addCheck("metrics-invariant", merr)
	if extra != nil {
		extra(h2.URL)
	}
	rep.SummaryFingerprint = StateFingerprint(CanonicalState(store2))
	rep.finish()
	return nil
}
