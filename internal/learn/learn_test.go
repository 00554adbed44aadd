package learn

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/regression"
	"disksig/internal/smart"
)

// history synthesizes n hourly records whose health attributes start at
// base and whose attribute a ramps down by drop points over the run.
// Every other health attribute stays flat, so the label comes from a
// alone.
func history(n int, a smart.Attr, base, drop float64) []smart.Record {
	recs := make([]smart.Record, n)
	for i := range recs {
		var v smart.Values
		for x := int(smart.RRER); x <= int(smart.SUT); x++ {
			v[x] = base
		}
		v[a] = base - drop*float64(i)/float64(n-1)
		recs[i] = smart.Record{Hour: i, Values: v}
	}
	return recs
}

func stateWith(entries ...fleet.DriveEntry) *fleet.State {
	st := &fleet.State{Drives: entries, HasHour: true}
	for _, e := range entries {
		if n := len(e.History); n > 0 && e.History[n-1].Hour > st.MaxHour {
			st.MaxHour = e.History[n-1].Hour
		}
	}
	return st
}

func TestLabelFailing(t *testing.T) {
	for _, tc := range []struct {
		name string
		hist []smart.Record
		want bool
	}{
		{"flat-healthy", history(48, smart.RRER, 95, 0), false},
		{"strong-single-drop", history(48, smart.RRER, 95, 30), true},
		{"moderate-single-drop", history(48, smart.RRER, 95, 6), false},
		{"noise-below-moderate", history(48, smart.SER, 95, 2), false},
	} {
		if got := labelFailing(tc.hist); got != tc.want {
			t.Errorf("labelFailing(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Two moderate drops together mark the drive failing even though
	// neither alone is strong.
	hist := history(48, smart.RRER, 95, 6)
	for i := range hist {
		hist[i].Values[smart.RSC] = 95 - 6*float64(i)/float64(len(hist)-1)
	}
	if !labelFailing(hist) {
		t.Error("two moderate drops did not mark the drive failing")
	}
}

func TestHarvestCohortsAndDeterminism(t *testing.T) {
	var entries []fleet.DriveEntry
	wantFailed, wantGood, wantEval := 0, 0, 0
	for i := 0; i < 30; i++ {
		serial := fmt.Sprintf("drv-%04d", i)
		failing := i%3 == 0
		drop := 0.0
		if failing {
			drop = 25
		}
		entries = append(entries, fleet.DriveEntry{
			Serial:  serial,
			History: history(60, smart.RRER, 95, drop),
		})
		if serialHash(serial)%holdoutMod == 0 {
			wantEval++
		} else if failing {
			wantFailed++
		} else {
			wantGood++
		}
	}
	// Too little history: skipped, never labeled.
	entries = append(entries, fleet.DriveEntry{Serial: "short-1", History: history(10, smart.RRER, 95, 30)})

	h, err := Harvest(stateWith(entries...))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Failed) != wantFailed || len(h.Good) != wantGood || len(h.Eval) != wantEval {
		t.Fatalf("cohorts = %d failed / %d good / %d eval, want %d/%d/%d",
			len(h.Failed), len(h.Good), len(h.Eval), wantFailed, wantGood, wantEval)
	}
	if h.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", h.Skipped)
	}
	for _, e := range h.Eval {
		// Every eval drive's label must match its construction.
		var i int
		fmt.Sscanf(e.Serial, "drv-%d", &i)
		if want := i%3 == 0; e.Failing != want {
			t.Errorf("eval drive %s labeled failing=%v, want %v", e.Serial, e.Failing, want)
		}
	}

	// Determinism: the same telemetry harvests to the same fingerprint;
	// any label-relevant change moves it.
	h2, err := Harvest(stateWith(entries...))
	if err != nil {
		t.Fatal(err)
	}
	if h.Fingerprint != h2.Fingerprint {
		t.Fatalf("fingerprints differ across identical harvests: %s vs %s", h.Fingerprint, h2.Fingerprint)
	}
	entries[0].History = history(61, smart.RRER, 95, 25)
	h3, err := Harvest(stateWith(entries...))
	if err != nil {
		t.Fatal(err)
	}
	if h3.Fingerprint == h.Fingerprint {
		t.Fatal("fingerprint unchanged after a drive's history changed")
	}
}

// scorePredictor maps one health attribute's normalized value straight
// to the degradation score, making eval outcomes easy to stage.
type scorePredictor struct{}

func (scorePredictor) Predict(x []float64) float64 { return x[smart.RRER] }

func evalNormalizer() *smart.Normalizer {
	n := smart.NewNormalizer()
	var lo, hi smart.Values
	for a := range lo {
		lo[a] = -1
		hi[a] = 1
	}
	n.Observe(lo)
	n.Observe(hi)
	return n
}

func evalNorms() monitor.ClassNorms { return monitor.ClassNorms{HDD: evalNormalizer()} }

func evalModels() []monitor.GroupModel {
	return []monitor.GroupModel{{
		Group:     1,
		Type:      core.Logical,
		Form:      regression.FormQuadratic,
		WindowD:   12,
		Predictor: scorePredictor{},
	}}
}

// flatDrive builds an eval drive whose RRER sits at a constant score:
// negative scores degrade past Warning, positive ones stay healthy.
func flatDrive(serial string, failing bool, score float64) EvalDrive {
	recs := make([]smart.Record, 30)
	for i := range recs {
		var v smart.Values
		v[smart.RRER] = score
		recs[i] = smart.Record{Hour: i, Values: v}
	}
	return EvalDrive{Serial: serial, Failing: failing, Records: recs}
}

func TestEvaluateScoring(t *testing.T) {
	eval := []EvalDrive{
		flatDrive("tp-1", true, -0.9),  // failing, flagged: TP
		flatDrive("tp-2", true, -0.9),  // TP
		flatDrive("fn-1", true, 0.9),   // failing, missed: FN
		flatDrive("fp-1", false, -0.9), // healthy, flagged: FP
		flatDrive("tn-1", false, 0.9),  // healthy, clean
		flatDrive("tn-2", false, 0.9),
	}
	sc, flags, err := Evaluate(evalModels(), evalNorms(), monitor.Config{Smoothing: 1}, eval, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.TruePositives != 2 || sc.FalsePositives != 1 || sc.FalseNegatives != 1 {
		t.Fatalf("confusion = TP %d / FP %d / FN %d, want 2/1/1",
			sc.TruePositives, sc.FalsePositives, sc.FalseNegatives)
	}
	if sc.Flagged != 3 || sc.EvalDrives != 6 {
		t.Fatalf("Flagged/EvalDrives = %d/%d, want 3/6", sc.Flagged, sc.EvalDrives)
	}
	wantP, wantR := 2.0/3.0, 2.0/3.0
	wantF1 := 2 * wantP * wantR / (wantP + wantR)
	if sc.Precision != wantP || sc.Recall != wantR || sc.F1 != wantF1 {
		t.Fatalf("P/R/F1 = %.3f/%.3f/%.3f, want %.3f/%.3f/%.3f",
			sc.Precision, sc.Recall, sc.F1, wantP, wantR, wantF1)
	}
	wantFlags := []bool{true, true, false, true, false, false}
	for i, f := range flags {
		if f != wantFlags[i] {
			t.Errorf("flags[%d] (%s) = %v, want %v", i, eval[i].Serial, f, wantFlags[i])
		}
	}
	// Empty cohort: a zero score, no error.
	sc, flags, err = Evaluate(evalModels(), evalNorms(), monitor.Config{}, nil, 2)
	if err != nil || sc.EvalDrives != 0 || flags != nil {
		t.Fatalf("empty eval = %+v, %v, %v", sc, flags, err)
	}
}

func TestRetrainOnceSkipsSmallCohort(t *testing.T) {
	// A store with a handful of drives: the cycle must report a skipped
	// promotion (cohort too small), not an error, and never call Promote.
	store, err := fleet.New(evalModels(), evalNorms(), fleet.Config{Shards: 2, HistoryHours: 100})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		serial := fmt.Sprintf("tiny-%d", d)
		for h := 0; h < 30; h++ {
			var v smart.Values
			v[smart.RRER] = 0.9
			store.IngestBatch([]fleet.Observation{{Serial: serial, Record: smart.Record{Hour: h, Values: v}}})
		}
	}
	r := &Retrainer{
		Store: store,
		Cfg:   Config{Core: core.Config{Seed: 1}},
		Promote: func(*persist.ModelArtifact) error {
			t.Fatal("Promote called for a skipped cycle")
			return nil
		},
	}
	res, err := r.RetrainOnce(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted {
		t.Fatal("undersized cohort was promoted")
	}
	if res.Reason == "" || res.ServingVersion != 1 || res.CandidateVersion != 2 {
		t.Fatalf("skipped cycle result = %+v", res)
	}
}

// TestRetrainOnceMixedStore retrains a store serving HDD and SSD drives.
// The cycle must harvest and score the HDD population only, and a
// promotion must leave the SSD model set and normalizer as they were.
func TestRetrainOnceMixedStore(t *testing.T) {
	ssd := evalModels()[0]
	ssd.Group, ssd.Class = 2, smart.SSD
	ssdNorm := evalNormalizer()
	store, err := fleet.New(append(evalModels(), ssd), monitor.ClassNorms{HDD: evalNormalizer(), SSD: ssdNorm},
		fleet.Config{Shards: 2, HistoryHours: 100})
	if err != nil {
		t.Fatal(err)
	}
	// SSD histories sit at a base no HDD history uses, so any SSD record
	// that reaches the training cohort is recognizable.
	const hddBase, ssdBase = 95, 80
	for d := 0; d < 30; d++ {
		drop := 0.0
		if d%2 == 0 {
			drop = 25
		}
		var obs []fleet.Observation
		for _, rec := range history(60, smart.RRER, hddBase, drop) {
			obs = append(obs, fleet.Observation{Serial: fmt.Sprintf("hdd-%02d", d), Record: rec})
		}
		for _, rec := range history(60, smart.RRER, ssdBase, drop) {
			obs = append(obs, fleet.Observation{Serial: fmt.Sprintf("ssd-%02d", d), Class: smart.SSD, Record: rec})
		}
		store.IngestBatch(obs)
	}

	h, err := Harvest(store.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(h.Failed) + len(h.Good) + len(h.Eval); n != 30 || h.Skipped != 0 {
		t.Fatalf("harvested %d drives (%d skipped), want the 30 HDD drives", n, h.Skipped)
	}
	for _, p := range append(append([]*smart.Profile(nil), h.Failed...), h.Good...) {
		if p.Records[0].Values[smart.SER] != hddBase {
			t.Fatalf("training profile %d carries SSD telemetry", p.DriveID)
		}
	}
	for _, e := range h.Eval {
		if !strings.HasPrefix(e.Serial, "hdd-") {
			t.Fatalf("SSD drive %s in the held-out cohort", e.Serial)
		}
	}

	before := store.ExportState()
	r := &Retrainer{
		Store: store,
		Cfg:   Config{Core: core.Config{Seed: 1}},
		Promote: func(art *persist.ModelArtifact) error {
			return store.SwapModels(art.Models, art.Norms(), art.Version)
		},
	}
	res, err := r.RetrainOnce(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedDrives+res.GoodDrives+res.EvalDrives != 30 {
		t.Fatalf("cycle cohorts = %d failed / %d good / %d eval, want 30 HDD drives in all", res.FailedDrives, res.GoodDrives, res.EvalDrives)
	}
	if !res.Promoted {
		t.Fatalf("candidate not promoted: %s", res.Reason)
	}
	after := store.ExportState()
	if after.ModelVersion != 2 {
		t.Fatalf("model version %d after promotion, want 2", after.ModelVersion)
	}
	var gotSSD []monitor.GroupModel
	for _, m := range after.Models {
		if m.Class == smart.SSD {
			gotSSD = append(gotSSD, m)
		}
	}
	if !reflect.DeepEqual(gotSSD, []monitor.GroupModel{ssd}) {
		t.Errorf("SSD models after promotion = %+v, want the serving SSD model", gotSSD)
	}
	if after.SSDNorm != ssdNorm {
		t.Error("promotion replaced the SSD normalizer")
	}
	if after.Norm == before.Norm {
		t.Error("promotion kept the serving HDD normalizer")
	}
}
