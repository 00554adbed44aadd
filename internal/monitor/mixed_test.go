package monitor

import (
	"testing"

	"disksig/internal/core"
	"disksig/internal/quality"
	"disksig/internal/smart"
)

// negPredictor inverts the RRER score, so the same record yields
// opposite degradation under the two classes — any cross-class scoring
// leak flips a test verdict.
type negPredictor struct{}

func (negPredictor) Predict(x []float64) float64 { return -x[smart.RRER] }

// mixedTestModels returns one HDD and one SSD model with deliberately
// opposite predictors, plus identity-ish per-class normalizers.
func mixedTestModels() ([]GroupModel, ClassNorms) {
	hdd := testModels()[0]
	ssd := hdd
	ssd.Class = smart.SSD
	ssd.Type = core.BadSector
	ssd.Predictor = negPredictor{}
	return []GroupModel{hdd, ssd}, ClassNorms{HDD: testNormalizer(), SSD: testNormalizer()}
}

func TestIngestClassRoutesToClassModels(t *testing.T) {
	models, norms := mixedTestModels()
	m, err := NewMulti(models, norms, Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	// RRER 0.9 is healthy under the HDD model but deeply degraded under
	// the inverted SSD model: the record must be scored only by its own
	// class's models.
	if a, kept := m.IngestClass(1, smart.HDD, record(0, 0.9)); !kept || a != nil {
		t.Errorf("HDD healthy record: alert=%v kept=%v", a, kept)
	}
	a, kept := m.IngestClass(2, smart.SSD, record(0, 0.9))
	if !kept || a == nil || a.Severity != Critical {
		t.Fatalf("SSD record scored by wrong class: alert=%v kept=%v", a, kept)
	}
	if a.Class != smart.SSD || a.Type != core.BadSector {
		t.Errorf("alert carries class %v type %v, want ssd/bad-sector", a.Class, a.Type)
	}
}

func TestIngestClassUnservedQuarantined(t *testing.T) {
	// A monitor built with HDD models only must quarantine SSD records
	// rather than score flash wear against rotational signatures.
	m, err := NewMulti(testModels(), hddNorms(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, kept := m.IngestClass(1, smart.SSD, record(0, 0.5))
	if kept || a != nil {
		t.Fatalf("unserved class ingested: alert=%v kept=%v", a, kept)
	}
	rep := m.Quality()
	if rep.ByField["device_class"] == 0 {
		t.Errorf("quarantine not attributed to device_class: %v", rep.ByField)
	}
	if rep.RowsQuarantined != 1 {
		t.Errorf("quarantined = %d, want 1", rep.RowsQuarantined)
	}
}

func TestIngestClassFlipFlopQuarantined(t *testing.T) {
	models, norms := mixedTestModels()
	m, err := NewMulti(models, norms, Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, kept := m.IngestClass(7, smart.HDD, record(0, 0.9)); !kept {
		t.Fatal("first record not kept")
	}
	// The same drive reporting as SSD one hour later is corrupt
	// telemetry: a serial cannot change hardware mid-stream.
	a, kept := m.IngestClass(7, smart.SSD, record(1, 0.9))
	if kept || a != nil {
		t.Fatalf("class flip-flop ingested: alert=%v kept=%v", a, kept)
	}
	if m.Quality().ByKind[quality.BadField] == 0 {
		t.Error("flip-flop not quarantined as bad field")
	}
	// The drive's state is untouched: still HDD, still scoring.
	if _, kept := m.IngestClass(7, smart.HDD, record(2, 0.8)); !kept {
		t.Error("drive stopped scoring after rejected flip-flop")
	}
}

// TestSSDCliffStraightToCritical pins the sudden-death dynamic: a cliff
// failure jumps from healthy to Critical on a single record, without
// ever passing through Watch or Warning — the alert a mixed fleet's
// pager must treat as "already dead", not "worth watching".
func TestSSDCliffStraightToCritical(t *testing.T) {
	models, norms := mixedTestModels()
	// Smoothing 1 so the cliff record is not averaged away; the SSD
	// model scores -RRER, so a healthy drive reports RRER -0.9.
	m, err := NewMulti(models, norms, Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 5; h++ {
		if a, kept := m.IngestClass(3, smart.SSD, record(h, -0.9)); !kept || a != nil {
			t.Fatalf("healthy plateau hour %d: alert=%v kept=%v", h, a, kept)
		}
	}
	a, kept := m.IngestClass(3, smart.SSD, record(5, 0.85))
	if !kept || a == nil {
		t.Fatalf("cliff record: alert=%v kept=%v", a, kept)
	}
	if a.Severity != Critical {
		t.Fatalf("cliff escalated to %v, want straight to Critical", a.Severity)
	}
	if a.Hour != 5 {
		t.Errorf("critical at hour %d, want 5", a.Hour)
	}
}

func TestModelsFromMixedClassStamping(t *testing.T) {
	// Guard NewMulti's validation: an SSD model without an SSD
	// normalizer must be rejected, as must a normalizer-less class set.
	models, norms := mixedTestModels()
	if _, err := NewMulti(models, ClassNorms{HDD: testNormalizer()}, Config{}); err == nil {
		t.Error("SSD model accepted without SSD normalizer")
	}
	if _, err := NewMulti(nil, norms, Config{}); err == nil {
		t.Error("empty model set accepted")
	}
	bad := append([]GroupModel{}, models...)
	bad[1].Class = smart.DeviceClass(9)
	if _, err := NewMulti(bad, norms, Config{}); err == nil {
		t.Error("invalid model class accepted")
	}
}
