package loadgen

import (
	"context"
	"fmt"

	"disksig/internal/core"
	"disksig/internal/monitor"
	"disksig/internal/quality"
	"disksig/internal/smart"
	"disksig/internal/synth"
)

// RunMixed is the heterogeneous-fleet drill: a mixed HDD+SSD fleet is
// characterized class by class (each class must recover its own group
// structure with zero cross-class contamination), then the per-class
// model sets serve a mixed workload through the chaos scenario's
// kill/warm-restart drill. On top of the drill's invariants, the
// scenario checks the class-facing surface: the summary's per-class
// roll-up accounts for every drive, both classes raise alerts, and
// per-class ingest counters balance.
func RunMixed(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	rep := &ScenarioReport{Name: "mixed"}
	if cfg.ChaosStateDir == "" {
		return rep, fmt.Errorf("loadgen: mixed scenario needs ChaosStateDir")
	}

	// Train per-class models on the training seed. The workload below is
	// generated at Seed+FleetSeedOffset, so the replayed fleet is held
	// out exactly as in the HDD scenarios.
	wcfg := cfg.Workload.withDefaults()
	wcfg.Mixed = true
	trainCfg := synth.DefaultMixedFleet(wcfg.Scale).WithSeed(wcfg.Seed)
	ds, err := synth.GenerateMixed(trainCfg)
	if err != nil {
		return rep, err
	}
	mc, err := core.CharacterizeMixed(ds, core.Config{Seed: wcfg.Seed, Workers: dep.Workers, Quality: quality.Config{}})
	if err != nil {
		return rep, err
	}
	mrep := &MixedReport{
		HDDGroups:     len(mc.ByClass[smart.HDD].Results),
		SSDGroups:     len(mc.ByClass[smart.SSD].Results),
		Contamination: mc.Contamination(),
	}
	rep.Mixed = mrep

	// Each class must recover its own multi-group signature structure,
	// and the partition must be exact: a profile characterized under the
	// wrong class would poison both normalizers.
	var structErr error
	if mrep.HDDGroups < 2 || mrep.SSDGroups < 2 {
		structErr = fmt.Errorf("degenerate class structure: %d HDD groups, %d SSD groups (want >= 2 each)",
			mrep.HDDGroups, mrep.SSDGroups)
	}
	rep.addCheck("per-class-group-structure", structErr)
	var contamErr error
	if mrep.Contamination != 0 {
		contamErr = fmt.Errorf("%d profiles landed in the wrong class partition", mrep.Contamination)
	}
	rep.addCheck("zero-cross-class-contamination", contamErr)

	models, norms, err := monitor.ModelsFromMixed(mc)
	if err != nil {
		return rep, err
	}

	wl, err := BuildWorkload(wcfg)
	if err != nil {
		return rep, err
	}
	for _, d := range wl.Drives {
		if d.Class == smart.SSD {
			mrep.SSDDrives++
		} else {
			mrep.HDDDrives++
		}
	}
	if mrep.SSDDrives == 0 || mrep.HDDDrives == 0 {
		rep.addCheck("workload-mixed", fmt.Errorf("workload is not mixed: %d HDD, %d SSD drives", mrep.HDDDrives, mrep.SSDDrives))
		rep.finish()
		return rep, nil
	}

	// The class-facing surface, checked on the restarted server: the
	// summary's per-class roll-up must account for every tracked drive,
	// both classes must be alerting (the workload carries failed drives
	// of both kinds), and the per-class ingest counters must both move.
	classChecks := func(url string) {
		rep.addCheck("per-class-summary", checkClassSummary(url, mrep))
		mrep.HDDRows, mrep.SSDRows = classIngestRows(url)
		var classRowsErr error
		if mrep.HDDRows == 0 || mrep.SSDRows == 0 {
			classRowsErr = fmt.Errorf("per-class ingest counters: %d HDD rows, %d SSD rows (want both > 0)", mrep.HDDRows, mrep.SSDRows)
		}
		rep.addCheck("per-class-ingest-counters", classRowsErr)
	}
	dep.Models, dep.Norms = models, norms
	return rep, killRestartDrill(ctx, dep, cfg, wl, rep, classChecks)
}

// classIngestRows reads the per-class ingest counters from /metrics;
// both are zero when the fetch fails.
func classIngestRows(baseURL string) (hdd, ssd int64) {
	var met struct {
		Ingest struct {
			HDD int64 `json:"rows_hdd"`
			SSD int64 `json:"rows_ssd"`
		} `json:"ingest"`
	}
	if err := fetchJSON(baseURL+"/metrics", &met); err != nil {
		return 0, 0
	}
	return met.Ingest.HDD, met.Ingest.SSD
}

// checkClassSummary fetches /v1/fleet/summary and validates the by_class
// roll-up: both classes present, per-class drive counts summing to the
// fleet total, and at least one non-healthy drive in each class.
func checkClassSummary(baseURL string, mrep *MixedReport) error {
	var sum struct {
		Drives  int `json:"drives"`
		ByClass map[string]struct {
			Drives     int            `json:"drives"`
			BySeverity map[string]int `json:"by_severity"`
		} `json:"by_class"`
	}
	if err := fetchJSON(baseURL+"/v1/fleet/summary?top=5", &sum); err != nil {
		return err
	}
	total := 0
	for _, cname := range []string{"hdd", "ssd"} {
		cs, ok := sum.ByClass[cname]
		if !ok {
			return fmt.Errorf("summary by_class has no %q entry", cname)
		}
		if cs.Drives == 0 {
			return fmt.Errorf("summary by_class[%s] tracks zero drives", cname)
		}
		sev := 0
		for name, n := range cs.BySeverity {
			if name != "healthy" {
				sev += n
			}
		}
		if sev == 0 {
			return fmt.Errorf("summary by_class[%s] has no drive above healthy (failed drives of both classes were replayed)", cname)
		}
		total += cs.Drives
	}
	if total != sum.Drives {
		return fmt.Errorf("by_class drives sum to %d, fleet tracks %d", total, sum.Drives)
	}
	mrep.HDDTracked = sum.ByClass["hdd"].Drives
	mrep.SSDTracked = sum.ByClass["ssd"].Drives
	return nil
}
