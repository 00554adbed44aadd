package loadgen

import (
	"context"
	"fmt"
	"time"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/learn"
	"disksig/internal/persist"
	"disksig/internal/server"
	"disksig/internal/smart"
)

// driftHistoryHours is the per-drive telemetry retention of the drift
// scenario's stores: long enough to cover a full failed-drive profile,
// so the harvest labels see the whole degradation ramp.
const driftHistoryHours = 480

// RunDrift is the online-learning scenario: a persisted server trained
// on the default failure mix ingests a baseline cohort, then a drifted
// cohort (synth.BackupWorkloadConfig — bad-sector failures dominate)
// under the now-stale models. A retraining cycle harvests the retained
// telemetry, shadow-evaluates the candidate against the serving models
// on held-out drives, and hot-swaps the promoted version — while a
// concurrent filler client keeps ingesting, proving the swap never
// takes ingest down. The scenario passes only if:
//
//   - the candidate wins the shadow evaluation and is promoted,
//   - every ingest ack (filler included) is a 200 carrying exactly one
//     model version, pre-swap batches v1 and post-swap batches v2,
//   - the persisted artifact's version and training fingerprint match
//     the cycle's, and harvesting the final state twice yields the
//     same fingerprint (training is deterministic in the telemetry),
//   - the served store matches a shadow — which adopts the promoted
//     artifact at the same batch boundary — record for record, and
//   - a kill + warm restart at a different shard count comes back on
//     the promoted version with state equal to the shadow.
//
// The filler replays strictly stale records (an earlier slice of the
// drift cohort), which the store quarantines identically under either
// model version — so its effect on the quality ledger is deterministic
// even though the swap lands at an arbitrary point inside it, and the
// shadow can apply it at a fixed position.
func RunDrift(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	rep := &ScenarioReport{Name: "drift"}
	if cfg.DriftStateDir == "" {
		return rep, fmt.Errorf("loadgen: drift scenario needs DriftStateDir")
	}
	wlBase, err := BuildWorkload(cfg.Workload)
	if err != nil {
		return rep, err
	}
	dcfg := cfg.Workload
	dcfg.Drift = true
	dcfg.SerialPrefix = "dr-"
	dcfg.FleetSeedOffset += 4000
	wlDrift, err := BuildWorkload(dcfg)
	if err != nil {
		return rep, err
	}

	fcfg := dep.fleetConfig()
	fcfg.HistoryHours = driftHistoryHours
	shadow, err := NewShadow(dep.Models, dep.Norms, fleet.Config{Monitor: dep.Monitor, HistoryHours: driftHistoryHours})
	if err != nil {
		return rep, err
	}

	mgr, err := persist.Open(cfg.DriftStateDir)
	if err != nil {
		return rep, err
	}
	store, err := fleet.New(dep.Models, dep.Norms, fcfg)
	if err != nil {
		return rep, err
	}
	if _, err := mgr.Snapshot(store); err != nil {
		return rep, fmt.Errorf("loadgen: seed snapshot: %w", err)
	}
	retr := &learn.Retrainer{
		Store: store,
		Cfg: learn.Config{
			Core:   core.Config{Seed: cfg.Workload.Seed, Workers: dep.Workers},
			Margin: cfg.ShadowMargin,
		},
		// The production promote hook: artifact first, then swap +
		// snapshot under the snapshot gate (crash-consistent promotion).
		Promote: func(art *persist.ModelArtifact) error {
			if _, err := persist.SaveModels(cfg.DriftStateDir, art); err != nil {
				return err
			}
			_, err := mgr.SnapshotWith(store, func() error {
				return store.SwapModels(art.Models, art.Norms(), art.Version)
			})
			return err
		},
	}
	h, err := StartHarnessStore(store, server.Config{MaxInFlight: 256, Persist: mgr, Retrain: retr})
	if err != nil {
		return rep, err
	}
	drv := &Driver{BaseURL: h.URL, Log: dep.Log}

	clients := cfg.clients()
	baseQ := wlBase.Split(clients)
	driftQ := wlDrift.Split(clients)
	driftChunks := ChunkQueues(driftQ, 2)
	rep.WorkloadFingerprint = Fingerprint(append(append([][]*Batch{}, baseQ...), driftQ...))
	rep.Drives = len(wlBase.Drives) + len(wlDrift.Drives)

	var alerts []string
	runPhase := func(name string, chunk [][]*Batch) (*PhaseStats, error) {
		stats, err := drv.Run(ctx, Phase{Name: name, Clients: clients}, chunk)
		if stats != nil {
			rep.Phases = append(rep.Phases, stats)
			alerts = append(alerts, stats.AlertKeys...)
			rep.Records += stats.RecordsSent
		}
		if err != nil {
			return stats, err
		}
		return stats, shadow.ApplyChunk(chunk)
	}
	// singleVersion checks one phase's swap-barrier evidence: every
	// acknowledged batch carried the one expected model version.
	singleVersion := func(stats *PhaseStats, want int) error {
		key := fmt.Sprintf("v%d", want)
		for v, n := range stats.ModelVersions {
			if v != key {
				return fmt.Errorf("phase %s: %d batches scored by %s, want only %s", stats.Name, n, v, key)
			}
		}
		if stats.ModelVersions[key] != stats.Batches {
			return fmt.Errorf("phase %s: %d of %d batches tagged %s", stats.Name, stats.ModelVersions[key], stats.Batches, key)
		}
		return nil
	}

	baseStats, err := runPhase("baseline", baseQ)
	if err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return rep, nil
	}
	staleStats, err := runPhase("drift-stale", driftChunks[0])
	if err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return rep, nil
	}
	var preErr error
	for _, st := range []*PhaseStats{baseStats, staleStats} {
		if err := singleVersion(st, 1); err != nil && preErr == nil {
			preErr = err
		}
	}
	rep.addCheck("pre-swap-batches-all-v1", preErr)

	// The filler replays records strictly older than each drift drive's
	// kept frontier (its LastHour after the drift-stale chunk, read off
	// the shadow), so every row quarantines as stale regardless of which
	// model version scores the batch — stale detection never consults the
	// models. It runs concurrently with the retraining cycle: the swap
	// lands somewhere inside it, and because no filler row is kept, the
	// swap point cannot perturb state, which lets the shadow apply the
	// same batches at a fixed position and still compare equal.
	frontier := map[string]int{}
	for _, e := range shadow.State().Drives {
		if e.State.Tracked {
			frontier[e.Serial] = e.State.LastHour
		}
	}
	var fillerDrives []Drive
	for _, d := range wlDrift.Drives {
		last, ok := frontier[d.Serial]
		if !ok {
			continue
		}
		var recs []smart.Record
		for _, r := range d.Records {
			if r.Hour < last {
				recs = append(recs, r)
			}
		}
		if len(recs) > 0 {
			fillerDrives = append(fillerDrives, Drive{Serial: d.Serial, Records: recs})
		}
	}
	if len(fillerDrives) == 0 {
		rep.addCheck("filler-phase", fmt.Errorf("no stale filler records below any drive frontier"))
		rep.finish()
		return rep, nil
	}
	fillerQ := WorkloadFromDrives(fillerDrives, cfg.Workload.withDefaults().BatchSize).Split(clients)
	type fillerOut struct {
		stats *PhaseStats
		err   error
	}
	fillerc := make(chan fillerOut, 1)
	go func() {
		stats, err := drv.Run(ctx, Phase{Name: "filler-during-retrain", Clients: clients}, fillerQ)
		fillerc <- fillerOut{stats, err}
	}()
	res, retrainErr := AdminRetrain(h.URL)
	fo := <-fillerc
	if fo.stats != nil {
		rep.Phases = append(rep.Phases, fo.stats)
		rep.Records += fo.stats.RecordsSent
	}
	if fo.err != nil {
		rep.addCheck("filler-phase", fo.err)
		rep.finish()
		return rep, nil
	}
	if err := shadow.ApplyChunk(fillerQ); err != nil {
		rep.addCheck("shadow", err)
		rep.finish()
		return rep, nil
	}
	if retrainErr != nil {
		rep.addCheck("retrain", retrainErr)
		rep.finish()
		return rep, nil
	}

	// The cycle must have promoted v2 on the strength of the shadow
	// evaluation; the filler must have stayed fully available (every
	// batch a 200) and every batch scored by exactly one version.
	var promErr error
	switch {
	case !res.Promoted:
		promErr = fmt.Errorf("candidate not promoted: %s (serving %v vs candidate %v)", res.Reason, res.Serving, res.Candidate)
	case res.CandidateVersion != 2:
		promErr = fmt.Errorf("promoted version %d, want 2", res.CandidateVersion)
	}
	rep.addCheck("candidate-promoted", promErr)
	var availErr error
	non200 := 0
	for class, n := range fo.stats.Status {
		if class != "2xx" {
			non200 += n
		}
	}
	if non200 > 0 {
		availErr = fmt.Errorf("filler saw %d non-200 responses during the swap: %v", non200, fo.stats.Status)
	} else if fo.stats.RecordsQuarantined != fo.stats.RecordsSent {
		availErr = fmt.Errorf("filler expected all %d stale records quarantined, got %d", fo.stats.RecordsSent, fo.stats.RecordsQuarantined)
	}
	rep.addCheck("ingest-available-during-swap", availErr)
	var fillerVerErr error
	for v, n := range fo.stats.ModelVersions {
		if v != "v1" && v != "v2" {
			fillerVerErr = fmt.Errorf("filler batch scored by unexpected version %s (%d batches)", v, n)
		}
	}
	rep.addCheck("filler-batches-single-version-each", fillerVerErr)
	rep.Drift = &DriftReport{
		ServingVersion:  res.ServingVersion,
		PromotedVersion: res.CandidateVersion,
		Fingerprint:     res.Fingerprint,
		FailedDrives:    res.FailedDrives,
		GoodDrives:      res.GoodDrives,
		EvalDrives:      res.EvalDrives,
		ServingF1:       res.Serving.F1,
		ServingRecall:   res.Serving.Recall,
		CandidateF1:     res.Candidate.F1,
		CandidateRecall: res.Candidate.Recall,
		Agreement:       res.Agreement,
		TrainMs:         res.TrainMillis,
		PromoteMs:       res.PromoteMillis,
		FillerBatches:   fo.stats.Batches,
		FillerNon200:    non200,
	}
	if promErr != nil {
		rep.finish()
		return rep, nil
	}

	// The shadow adopts the persisted artifact at the same batch
	// boundary the served store finished its filler at; from here both
	// score on v2. The artifact's provenance must match the cycle's.
	art, err := persist.LoadModels(cfg.DriftStateDir)
	var artErr error
	switch {
	case err != nil:
		artErr = err
	case art.Version != res.CandidateVersion:
		artErr = fmt.Errorf("artifact version %d, want %d", art.Version, res.CandidateVersion)
	case art.Fingerprint != res.Fingerprint:
		artErr = fmt.Errorf("artifact fingerprint %s, cycle reported %s", art.Fingerprint, res.Fingerprint)
	}
	rep.addCheck("artifact-matches-cycle", artErr)
	if artErr != nil {
		rep.finish()
		return rep, nil
	}
	if err := shadow.Store().SwapModels(art.Models, art.Norms(), art.Version); err != nil {
		rep.addCheck("shadow-swap", err)
		rep.finish()
		return rep, nil
	}
	if v, err := ActiveModelVersion(h.URL); err != nil || v != art.Version {
		rep.addCheck("models-status", fmt.Errorf("active version %d (err %v), want %d", v, err, art.Version))
		rep.finish()
		return rep, nil
	}

	postStats, err := runPhase("drift-promoted", driftChunks[1])
	if err != nil {
		rep.addCheck("phase", err)
		rep.finish()
		return rep, nil
	}
	rep.addCheck("post-swap-batches-all-v2", singleVersion(postStats, 2))
	rep.Alerts = len(alerts)

	rep.addCheck("state-matches-shadow",
		CompareStates("shadow", "served", shadow.State(), CanonicalState(h.Store)))
	rep.addCheck("alerts-match-shadow",
		CompareAlerts("shadow", "http", shadow.AlertKeys(), alerts, false))
	_, _, _, merr := MetricsInvariant(h.URL, int64(shadow.Ingested()))
	rep.addCheck("metrics-invariant", merr)

	// Fingerprint determinism: two harvests of the same retained
	// telemetry must agree exactly.
	finalState := CanonicalState(h.Store)
	h1, err1 := learn.Harvest(finalState)
	h2, err2 := learn.Harvest(finalState)
	var fpErr error
	switch {
	case err1 != nil:
		fpErr = err1
	case err2 != nil:
		fpErr = err2
	case h1.Fingerprint != h2.Fingerprint:
		fpErr = fmt.Errorf("repeated harvest fingerprints differ: %s vs %s", h1.Fingerprint, h2.Fingerprint)
	}
	rep.addCheck("harvest-fingerprint-deterministic", fpErr)

	// Kill (crash semantics: drain HTTP, abandon the manager) and warm
	// restart at a different shard count: the store must come back on
	// the promoted version with state equal to the shadow's.
	killCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = h.Stop(killCtx)
	cancel()
	if err != nil {
		rep.addCheck("kill", err)
		rep.finish()
		return rep, nil
	}
	restoredCfg := fcfg
	restoredCfg.Shards = h.Store.Shards() * 2
	store2, mgr2, rec, restoreDur, err := RestoreStore(cfg.DriftStateDir, restoredCfg)
	if err != nil {
		rep.addCheck("restore", err)
		rep.finish()
		return rep, nil
	}
	defer mgr2.Close()
	rep.Recovery = &RecoveryReport{
		RestoreMs:      float64(restoreDur) / float64(time.Millisecond),
		SnapshotDrives: rec.SnapshotDrives,
		WALBatches:     rec.WALBatches,
		WALRows:        rec.WALRows,
		ShardsBefore:   h.Store.Shards(),
		ShardsAfter:    store2.Shards(),
	}
	var verErr error
	if v := store2.ModelVersion(); v != art.Version {
		verErr = fmt.Errorf("restored store serves model version %d, want promoted %d", v, art.Version)
	}
	rep.addCheck("restored-on-promoted-version", verErr)
	rep.addCheck("restored-state-matches-shadow",
		CompareStates("shadow", "restored", shadow.State(), CanonicalState(store2)))
	rep.SummaryFingerprint = StateFingerprint(CanonicalState(store2))
	rep.finish()
	return rep, nil
}
