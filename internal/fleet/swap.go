package fleet

import (
	"fmt"

	"disksig/internal/monitor"
	"disksig/internal/smart"
)

// ModelVersion returns the version of the model set currently scoring
// the fleet. Versions start at 1 for a freshly trained store and
// increase by every promoted swap.
func (s *Store) ModelVersion() int {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	return s.version
}

// Models returns a copy of the model set currently scoring the fleet,
// consistent with the version ModelVersion reports at the same moment.
func (s *Store) Models() []monitor.GroupModel {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	return append([]monitor.GroupModel(nil), s.models...)
}

// SwapModels hot-swaps the serving model set atomically across all
// shards. It is the promotion step of the online-learning cycle: the
// swap barrier (held exclusively here, shared by every ingest) means no
// batch is ever scored by two versions — batches in flight drain first,
// batches arriving during the swap score entirely on the new version.
//
// Per-drive monitor state migrates: severity, last hour, quality
// ledgers and retraining history survive, while the smoothing windows
// reset (scores from different model versions must never be median-
// filtered together). A drive therefore re-enters its smoothing ramp
// under the new models and alerts only on a further escalation, so a
// swap never re-alerts a stable fleet wholesale.
//
// The swap validates and stages every shard before committing any of
// them: on error the store still serves the old version unchanged.
//
// The incoming set replaces only the model sets of the classes it
// contains, each with its normalizer from norms: the online-learning
// cycle retrains the HDD population from its harvested history, and
// that promotion must not drop the SSD model set (or vice versa).
// Classes absent from the incoming set keep their current models and
// normalizer.
func (s *Store) SwapModels(models []monitor.GroupModel, norms monitor.ClassNorms, version int) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if version <= s.version {
		return fmt.Errorf("fleet: swap to version %d refused: serving version %d is not older", version, s.version)
	}

	// Merge with the preserved classes: incoming models first (they are
	// ordered by class already when built by ModelsFromMixed), then the
	// retained sets of untouched classes in their current order.
	var incoming [smart.NumClasses]bool
	for _, m := range models {
		if !m.Class.Valid() {
			return fmt.Errorf("fleet: swap to version %d: group %d has invalid class %d", version, m.Group, m.Class)
		}
		incoming[m.Class] = true
	}
	combined := append([]monitor.GroupModel(nil), models...)
	mergedNorms := norms
	for _, m := range s.models {
		if !incoming[m.Class] {
			combined = append(combined, m)
		}
	}
	for c := smart.DeviceClass(0); c < smart.NumClasses; c++ {
		if !incoming[c] {
			mergedNorms = setNorm(mergedNorms, c, s.norms)
		}
	}

	// Stage: build one replacement monitor per shard with every drive
	// migrated. Ingestion is excluded by the barrier, but queries still
	// read shards, so each shard locks while its state is copied out.
	staged := make([]*monitor.Monitor, len(s.shards))
	for si, sh := range s.shards {
		mon, err := monitor.NewMulti(combined, mergedNorms, s.cfg.Monitor)
		if err != nil {
			return fmt.Errorf("fleet: swap to version %d: building shard %d: %w", version, si, err)
		}
		sh.mu.Lock()
		drives := sh.mon.ExportDrives()
		sh.mu.Unlock()
		for id, ds := range drives {
			if ds.Tracked {
				// Reset the smoothing windows to one empty window per
				// new model; everything else carries over.
				ds.Recent = make([][]float64, len(combined))
			}
			if err := mon.ImportDrive(id, ds); err != nil {
				return fmt.Errorf("fleet: swap to version %d: migrating shard %d drive %d: %w", version, si, id, err)
			}
		}
		staged[si] = mon
	}

	// Commit: infallible pointer swaps.
	for si, sh := range s.shards {
		sh.mu.Lock()
		sh.mon = staged[si]
		sh.mu.Unlock()
	}
	s.models = combined
	s.norms = mergedNorms
	s.version = version
	return nil
}

// setNorm copies class c's normalizer from src into dst.
func setNorm(dst monitor.ClassNorms, c smart.DeviceClass, src monitor.ClassNorms) monitor.ClassNorms {
	switch c {
	case smart.HDD:
		dst.HDD = src.HDD
	case smart.SSD:
		dst.SSD = src.SSD
	}
	return dst
}
