package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/loadgen"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/quality"
	"disksig/internal/synth"
)

// runKillRestoreSelftest proves the durability layer end-to-end: a
// persisted store is killed mid-replay (the process state is abandoned,
// only the state directory survives) and restored at a different shard
// count; the restored replay must produce record-for-record the same
// alerts and the same final fleet state as an uninterrupted run. A
// second kill with a torn WAL tail must recover by quarantining exactly
// the half-written record.
func runKillRestoreSelftest(ch *core.Characterization, scale synth.Scale, seed int64) error {
	dir, err := os.MkdirTemp("", "diskserve-killrestore-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fcfg := fleet.Config{Shards: 8, Monitor: monitor.Config{}}
	models, norms, err := monitor.ModelsFromCharacterization(ch)
	if err != nil {
		return err
	}
	ref, err := fleet.New(models, norms, fcfg)
	if err != nil {
		return err
	}
	p1, err := fleet.New(models, norms, fcfg)
	if err != nil {
		return err
	}

	batches := killRestoreBatches(scale, seed)
	if len(batches) < 8 {
		return fmt.Errorf("only %d replay batches; kill point would be degenerate", len(batches))
	}
	snapAt := len(batches) / 4 // snapshot here; later batches live only in the WAL
	killAt := len(batches) / 2 // abandon the first process here
	log.Printf("selftest: kill-and-restore over %d batches (snapshot after %d, kill after %d)",
		len(batches), snapAt, killAt)

	// Uninterrupted reference run.
	var refAlerts []string
	for _, b := range batches {
		refAlerts = append(refAlerts, loadgen.BatchAlertKeys(ref.IngestBatch(b))...)
	}
	if len(refAlerts) == 0 {
		return fmt.Errorf("uninterrupted run raised no alerts; kill-and-restore selftest is vacuous")
	}

	// Persisted run, phase 1: WAL-logged ingestion up to the kill point.
	m1, err := persist.Open(dir)
	if err != nil {
		return err
	}
	if _, err := m1.Snapshot(p1); err != nil {
		return fmt.Errorf("seed snapshot: %w", err)
	}
	var gotAlerts []string
	for i := 0; i < killAt; i++ {
		b := batches[i]
		res, _, err := m1.LogBatch(b, func() fleet.BatchResult { return p1.IngestBatch(b) })
		if err != nil {
			return fmt.Errorf("WAL append at batch %d: %w", i, err)
		}
		gotAlerts = append(gotAlerts, loadgen.BatchAlertKeys(res)...)
		if i == snapAt {
			if _, err := m1.Snapshot(p1); err != nil {
				return fmt.Errorf("mid-replay snapshot: %w", err)
			}
		}
	}
	want := loadgen.CanonicalState(p1)
	// Kill: m1 is abandoned without Close. WAL appends are unbuffered,
	// so the state directory now looks exactly like a crash.

	// Phase 2: restore at a DIFFERENT shard count and finish the replay.
	m2, err := persist.Open(dir)
	if err != nil {
		return err
	}
	p2, rec, err := m2.Restore(fleet.Config{Shards: 32, Monitor: fcfg.Monitor})
	if err != nil {
		return fmt.Errorf("restore after kill: %w", err)
	}
	if wantBatches := killAt - snapAt - 1; rec.WALBatches != wantBatches {
		return fmt.Errorf("restore replayed %d WAL batches, want %d (snapshot at %d, kill at %d)",
			rec.WALBatches, wantBatches, snapAt, killAt)
	}
	if rec.TornTail || rec.StaleWAL {
		return fmt.Errorf("clean kill recovered with TornTail=%v StaleWAL=%v, want neither", rec.TornTail, rec.StaleWAL)
	}
	if err := loadgen.CompareStates("killed process", "restored", want, loadgen.CanonicalState(p2)); err != nil {
		return err
	}
	log.Printf("selftest: %s; restored state bit-identical at 32 shards", rec)

	for i := killAt; i < len(batches); i++ {
		b := batches[i]
		res, _, err := m2.LogBatch(b, func() fleet.BatchResult { return p2.IngestBatch(b) })
		if err != nil {
			return fmt.Errorf("WAL append after restore at batch %d: %w", i, err)
		}
		gotAlerts = append(gotAlerts, loadgen.BatchAlertKeys(res)...)
	}
	// Record-for-record identity: the pre-kill and post-restore alert
	// streams concatenated must equal the uninterrupted run's, in order.
	if err := loadgen.CompareAlerts("uninterrupted", "killed+restored", refAlerts, gotAlerts, true); err != nil {
		return err
	}
	if err := loadgen.CompareStates("uninterrupted", "killed+restored", loadgen.CanonicalState(ref), loadgen.CanonicalState(p2)); err != nil {
		return err
	}
	log.Printf("selftest: %d alerts record-for-record identical across kill and restore", len(refAlerts))

	// Phase 3: torn WAL tail. Log one sacrificial batch, kill, and rip
	// its tail off — recovery must quarantine exactly that record and
	// land on the pre-sacrificial state.
	preTear := loadgen.CanonicalState(p2)
	sacrificial := batches[len(batches)-1]
	if _, _, err := m2.LogBatch(sacrificial, func() fleet.BatchResult { return p2.IngestBatch(sacrificial) }); err != nil {
		return err
	}
	if err := m2.Close(); err != nil {
		return err
	}
	walPath := filepath.Join(dir, "wal.bin")
	fi, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		return err
	}
	m3, err := persist.Open(dir)
	if err != nil {
		return err
	}
	defer m3.Close()
	p3, rec3, err := m3.Restore(fcfg)
	if err != nil {
		return fmt.Errorf("restore with torn WAL tail: %w", err)
	}
	if !rec3.TornTail || rec3.DroppedBytes == 0 {
		return fmt.Errorf("torn tail not detected: %+v", rec3)
	}
	if n := rec3.Quality.ByKind[quality.TruncatedInput]; n != 1 {
		return fmt.Errorf("torn tail quarantined %d TruncatedInput records, want 1", n)
	}
	if got := loadgen.CanonicalState(p3); !reflect.DeepEqual(got, preTear) {
		return fmt.Errorf("torn-tail recovery state differs from pre-sacrificial state")
	}
	log.Printf("selftest: torn WAL tail quarantined (%d bytes dropped), state intact", rec3.DroppedBytes)
	return nil
}

// killRestoreBatches builds the replay load: a held-out fleet the models
// never saw, with deterministic fault injection, interleaved round-robin
// and cut into fixed-size batches — the loadgen workload builder in a
// single stream.
func killRestoreBatches(scale synth.Scale, seed int64) [][]fleet.Observation {
	wl, err := loadgen.BuildWorkload(loadgen.WorkloadConfig{
		Seed:            seed,
		FleetSeedOffset: 2000,
		Scale:           scale,
		MaxFailed:       10,
		MaxGood:         25,
		SerialPrefix:    "kr-",
		GarbleRate:      0.02,
		DuplicateRate:   0.02,
		ReorderRate:     0.02,
		BatchSize:       200,
	})
	if err != nil {
		log.Fatal(err)
	}
	var batches [][]fleet.Observation
	for _, b := range wl.Split(1)[0] {
		batches = append(batches, b.Obs)
	}
	return batches
}
