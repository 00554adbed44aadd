package fleet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"disksig/internal/core"
	"disksig/internal/monitor"
	"disksig/internal/regression"
	"disksig/internal/smart"
)

// shiftPredictor scores records by RRER plus a constant offset — a
// "retrained" model whose scores differ from rampPredictor's, so tests
// can tell which version scored a record.
type shiftPredictor struct{ off float64 }

func (p shiftPredictor) Predict(x []float64) float64 { return x[smart.RRER] + p.off }

func swappedModels(off float64) []monitor.GroupModel {
	return []monitor.GroupModel{{
		Group:     1,
		Type:      core.Logical,
		Form:      regression.FormQuadratic,
		WindowD:   12,
		Predictor: shiftPredictor{off: off},
	}}
}

func TestSwapModelsVersioning(t *testing.T) {
	s := testStore(t, Config{Shards: 4})
	if v := s.ModelVersion(); v != 1 {
		t.Fatalf("fresh store ModelVersion = %d, want 1", v)
	}
	// Same or older version: refused, store unchanged.
	for _, v := range []int{0, 1} {
		if err := s.SwapModels(swappedModels(0.5), hddNorms(), v); err == nil {
			t.Fatalf("swap to version %d accepted, want refusal", v)
		}
	}
	if v := s.ModelVersion(); v != 1 {
		t.Fatalf("ModelVersion = %d after refused swaps, want 1", v)
	}
	if err := s.SwapModels(swappedModels(0.5), hddNorms(), 2); err != nil {
		t.Fatal(err)
	}
	if v := s.ModelVersion(); v != 2 {
		t.Fatalf("ModelVersion = %d after swap, want 2", v)
	}
	m := s.Models()
	if len(m) != 1 {
		t.Fatalf("Models() = %d models, want 1", len(m))
	}
	if _, ok := m[0].Predictor.(shiftPredictor); !ok {
		t.Fatalf("Models()[0].Predictor = %T, want the swapped-in shiftPredictor", m[0].Predictor)
	}
	// Versions need not be consecutive — only increasing.
	if err := s.SwapModels(swappedModels(0.25), hddNorms(), 7); err != nil {
		t.Fatal(err)
	}
	if v := s.ModelVersion(); v != 7 {
		t.Fatalf("ModelVersion = %d, want 7", v)
	}
}

func TestSwapPreservesStatePerDrive(t *testing.T) {
	s := testStore(t, Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}, HistoryHours: 100})
	ingest(s, "SER-1", record(0, 0.9))
	if a := ingest(s, "SER-1", record(1, -0.3)); a == nil || a.ModelVersion != 1 || a.Severity != monitor.Warning {
		t.Fatalf("pre-swap alert = %+v, want version-1 warning", a)
	}
	before, _ := s.Drive("SER-1")

	// The swap itself re-scores nothing: severity and last-hour carry
	// over as-is.
	if err := s.SwapModels(swappedModels(0.25), hddNorms(), 2); err != nil {
		t.Fatal(err)
	}
	after, ok := s.Drive("SER-1")
	if !ok {
		t.Fatal("drive lost across swap")
	}
	if after.Severity != before.Severity || after.LastHour != before.LastHour {
		t.Fatalf("drive state across swap = %+v, want severity/hour of %+v", after, before)
	}
	// History survives the swap: the retrainer harvests across versions.
	st := s.ExportState()
	if len(st.Drives) != 1 || len(st.Drives[0].History) != 2 {
		t.Fatalf("exported history = %+v, want the 2 kept records", st.Drives)
	}
	// An old record is still stale after the swap (duplicate/stale
	// decisions are model-version-independent).
	if a := ingest(s, "SER-1", record(0, -0.9)); a != nil {
		t.Fatalf("stale record alerted after swap: %+v", a)
	}
	// A further escalation under the new models alerts, tagged with the
	// new version (score -0.9 + 0.25 = -0.65, past the critical
	// threshold).
	a := ingest(s, "SER-1", record(2, -0.9))
	if a == nil || a.ModelVersion != 2 || a.Severity != monitor.Critical {
		t.Fatalf("post-swap alert = %+v, want version-2 critical", a)
	}
}

// TestSwapBarrierUnderLoad hammers IngestBatch from several goroutines
// while model swaps land in between: the barrier must give every batch
// exactly one model version — the batch's own alerts all tagged with it
// — at every shard layout.
func TestSwapBarrierUnderLoad(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := testStore(t, Config{Shards: shards, Workers: 4, Monitor: monitor.Config{Smoothing: 1}})
			// Each batch uses fresh serials ramping to failure, so every
			// batch raises alerts no matter when it runs.
			batch := func(tag int) []Observation {
				var obs []Observation
				for d := 0; d < 20; d++ {
					serial := fmt.Sprintf("S%03d-%04d", tag, d)
					for h := 0; h < 4; h++ {
						obs = append(obs, Observation{Serial: serial, Record: record(h, 0.9-float64(h))})
					}
				}
				return obs
			}

			const ingesters, batches = 4, 25
			results := make(chan BatchResult, ingesters*batches)
			var wg sync.WaitGroup
			for g := 0; g < ingesters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < batches; i++ {
						results <- s.IngestBatch(batch(g*batches + i))
					}
				}(g)
			}
			// Swaps race the ingest load; each lands between two batches,
			// never inside one.
			for v := 2; v <= 12; v++ {
				if err := s.SwapModels(swappedModels(float64(v)/100), hddNorms(), v); err != nil {
					t.Error(err)
				}
			}
			wg.Wait()
			close(results)

			versions := map[int]int{}
			for res := range results {
				if res.ModelVersion < 1 || res.ModelVersion > 12 {
					t.Fatalf("batch scored by impossible version %d", res.ModelVersion)
				}
				versions[res.ModelVersion]++
				if len(res.Alerts) == 0 {
					t.Fatal("a batch of fresh degrading drives raised no alerts")
				}
				for _, a := range res.Alerts {
					if a.ModelVersion != res.ModelVersion {
						t.Fatalf("alert version %d inside a version-%d batch: the barrier leaked a swap mid-batch",
							a.ModelVersion, res.ModelVersion)
					}
				}
			}
			if v := s.ModelVersion(); v != 12 {
				t.Fatalf("final ModelVersion = %d, want 12", v)
			}
		})
	}
}

// TestRestoreAfterSwap proves a swapped store round-trips through
// export/restore at a different shard count: same drives, same promoted
// version, bit-identical state.
func TestRestoreAfterSwap(t *testing.T) {
	cfg := Config{Shards: 4, Monitor: monitor.Config{Smoothing: 1}, HistoryHours: 50}
	s := testStore(t, cfg)
	s.IngestBatch(buildStream(30, 10))
	if err := s.SwapModels(swappedModels(0.5), hddNorms(), 3); err != nil {
		t.Fatal(err)
	}
	// Post-swap traffic shapes state under the new version.
	for d := 0; d < 30; d++ {
		ingest(s, fmt.Sprintf("SER-%04d", d), record(11, 0.4))
	}

	st := s.ExportState()
	if st.ModelVersion != 3 {
		t.Fatalf("exported ModelVersion = %d, want 3", st.ModelVersion)
	}
	restored, err := Restore(st, Config{Shards: 16, Workers: 2, HistoryHours: 50})
	if err != nil {
		t.Fatal(err)
	}
	if v := restored.ModelVersion(); v != 3 {
		t.Fatalf("restored ModelVersion = %d, want 3", v)
	}
	if !reflect.DeepEqual(st, restored.ExportState()) {
		t.Fatal("restored state differs from exported state")
	}
	// The restored store keeps scoring under the promoted models, and a
	// swap to a version at or below the restored one is still refused.
	if err := restored.SwapModels(swappedModels(0.1), hddNorms(), 3); err == nil {
		t.Fatal("restored store accepted a swap to its own version")
	}
	if a := ingest(restored, "SER-0001", record(12, -3)); a == nil || a.ModelVersion != 3 {
		t.Fatalf("restored store alert = %+v, want version-3 alert", a)
	}
}

// classModels returns the models of one device class, in order.
func classModels(models []monitor.GroupModel, c smart.DeviceClass) []monitor.GroupModel {
	var out []monitor.GroupModel
	for _, m := range models {
		if m.Class == c {
			out = append(out, m)
		}
	}
	return out
}

// TestSwapModelsPreservesAbsentClass swaps one class, the other, and
// both on a mixed store. A class absent from the incoming set keeps its
// models and normalizer, its drives keep scoring with the severities an
// unswapped store assigns, and the swapped store round-trips through
// Restore.
func TestSwapModelsPreservesAbsentClass(t *testing.T) {
	stream := mixedStream(12, 8)
	half := len(stream) / 2
	newHDD := swappedModels(0.25)
	newSSD := swappedModels(-0.25)
	newSSD[0].Group, newSSD[0].Class = 2, smart.SSD
	for _, tc := range []struct {
		name   string
		models []monitor.GroupModel
		norms  monitor.ClassNorms
	}{
		{"hdd-only", newHDD, monitor.ClassNorms{HDD: testNormalizer()}},
		{"ssd-only", newSSD, monitor.ClassNorms{SSD: testNormalizer()}},
		{"both", append(append([]monitor.GroupModel(nil), newHDD...), newSSD...),
			monitor.ClassNorms{HDD: testNormalizer(), SSD: testNormalizer()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Shards: 4, Monitor: monitor.Config{Smoothing: 1}}
			ref, s := mixedTestStore(t, cfg), mixedTestStore(t, cfg)
			ref.IngestBatch(stream[:half])
			s.IngestBatch(stream[:half])
			before := s.ExportState()
			if err := s.SwapModels(tc.models, tc.norms, 2); err != nil {
				t.Fatal(err)
			}

			after := s.ExportState()
			for c := smart.DeviceClass(0); c < smart.NumClasses; c++ {
				wantModels, wantNorm := classModels(before.Models, c), before.Norms().For(c)
				if tc.norms.For(c) != nil {
					wantModels, wantNorm = classModels(tc.models, c), tc.norms.For(c)
				}
				if got := classModels(after.Models, c); !reflect.DeepEqual(got, wantModels) {
					t.Errorf("%v models after swap = %+v, want %+v", c, got, wantModels)
				}
				if got := after.Norms().For(c); got != wantNorm {
					t.Errorf("%v normalizer after swap is %p, want %p", c, got, wantNorm)
				}
			}

			// Drives of an absent class score exactly as on the unswapped
			// store; only the version tag differs.
			refRes, res := ref.IngestBatch(stream[half:]), s.IngestBatch(stream[half:])
			for c := smart.DeviceClass(0); c < smart.NumClasses; c++ {
				if tc.norms.For(c) != nil {
					continue
				}
				want, got := alertsOfClass(refRes.Alerts, c), alertsOfClass(res.Alerts, c)
				if len(want) == 0 {
					t.Fatalf("second half raised no %v alerts; the check is vacuous", c)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v alerts after swap = %+v, want %+v", c, got, want)
				}
				for _, e := range ref.ExportState().Drives {
					if e.State.Class != c {
						continue
					}
					if d, _ := s.Drive(e.Serial); d.Severity != e.State.Severity {
						t.Errorf("%v drive %s severity %v after swap, want %v", c, e.Serial, d.Severity, e.State.Severity)
					}
				}
			}

			restored, err := Restore(s.ExportState(), Config{Shards: 16, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(canonicalState(restored.ExportState()), canonicalState(s.ExportState())) {
				t.Error("restored state differs from the live swapped store")
			}
		})
	}
}

// alertsOfClass returns one class's alerts with the model version
// cleared, so streams scored under different versions compare equal.
func alertsOfClass(alerts []Alert, c smart.DeviceClass) []Alert {
	var out []Alert
	for _, a := range alerts {
		if a.Class == c {
			a.ModelVersion = 0
			out = append(out, a)
		}
	}
	return out
}
