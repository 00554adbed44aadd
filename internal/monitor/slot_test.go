package monitor

import (
	"strings"
	"testing"

	"disksig/internal/quality"
	"disksig/internal/smart"
)

// checkSlotLedgers asserts the slot bookkeeping invariants: Tracked()
// counts exactly the tracked drives, and the per-drive ledgers sum to
// the monitor-wide quality report.
func checkSlotLedgers(t *testing.T, m *Monitor) {
	t.Helper()
	var sum quality.Report
	tracked := 0
	for _, ds := range m.ExportDrives() {
		if ds.Tracked {
			tracked++
		}
		sum.AddRows(ds.Ledger.RowsRead, ds.Ledger.RowsQuarantined, 0)
		for k, n := range ds.Ledger.ByKind {
			sum.ByKind[k] += n
		}
		for f, n := range ds.Ledger.ByField {
			if sum.ByField == nil {
				sum.ByField = map[string]int{}
			}
			sum.ByField[f] += n
		}
	}
	if tracked != m.Tracked() {
		t.Errorf("Tracked() = %d, exported tracked drives = %d", m.Tracked(), tracked)
	}
	if !sum.CountersEqual(m.Quality()) {
		t.Errorf("per-drive ledgers do not sum to Quality():\n%v\nvs\n%v", &sum, m.Quality())
	}
}

func TestSlotContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, m *Monitor)
	}{
		{"negative ID", func(t *testing.T, m *Monitor) {
			func() {
				defer func() {
					r := recover()
					if msg, _ := r.(string); !strings.Contains(msg, "negative drive ID -1") {
						t.Errorf("IngestClass(-1) panic = %v, want a negative-drive-ID message", r)
					}
				}()
				m.IngestClass(-1, smart.HDD, record(0, 0.9))
			}()
			if _, ok := m.Status(-1); ok {
				t.Error("Status(-1) reported a drive")
			}
			if m.Forget(-1) {
				t.Error("Forget(-1) = true")
			}
			st := DriveState{Tracked: true, Seen: true, Recent: make([][]float64, 2), Ledger: DriveLedger{RowsRead: 1}}
			if err := m.ImportDrive(-1, st); err == nil {
				t.Error("ImportDrive(-1) accepted")
			}
		}},
		{"import past the slice", func(t *testing.T, m *Monitor) {
			m.IngestClass(0, smart.HDD, record(0, 0.9))
			st := DriveState{
				Tracked: true, LastHour: 7, Seen: true, Severity: Watch,
				Recent: [][]float64{{0.4}, nil},
				Ledger: DriveLedger{RowsRead: 2, RowsQuarantined: 1, ByKind: map[quality.Kind]int{quality.NonFinite: 1}},
			}
			if err := m.ImportDrive(50, st); err != nil {
				t.Fatalf("ImportDrive(50): %v", err)
			}
			got, ok := m.Status(50)
			if !ok || got.LastHour != 7 || got.Severity != Watch {
				t.Fatalf("Status(50) = %+v, %v", got, ok)
			}
			if _, ok := m.Status(49); ok {
				t.Error("the gap below an imported ID holds a drive")
			}
			// The imported window carries on: hour 8 is fresh, hour 6 stale.
			if _, kept := m.IngestClass(50, smart.HDD, record(8, 0.4)); !kept {
				t.Error("next hour after import not kept")
			}
			if _, kept := m.IngestClass(50, smart.HDD, record(6, 0.4)); kept {
				t.Error("stale hour after import kept")
			}
		}},
		{"forget then re-ingest", func(t *testing.T, m *Monitor) {
			for h, score := range []float64{-0.9, -0.9, -0.9} {
				m.IngestClass(3, smart.HDD, record(h, score))
			}
			m.IngestClass(3, smart.HDD, nonFiniteRecord(3))
			if st, _ := m.Status(3); st.Severity != Critical {
				t.Fatalf("setup: severity %v, want critical", st.Severity)
			}
			if !m.Forget(3) {
				t.Fatal("Forget(3) = false")
			}
			if q := m.Quality(); q.RowsRead != 0 || q.Count(quality.NonFinite) != 0 {
				t.Fatalf("ledger not released: %v", q.Summary())
			}
			// Hour 0 is older than the forgotten drive's last hour: a fresh
			// window must take it, and score it from that record alone.
			if _, kept := m.IngestClass(3, smart.HDD, record(0, 0.9)); !kept {
				t.Fatal("re-ingest after Forget quarantined")
			}
			st, ok := m.Status(3)
			if !ok || st.Severity != Healthy || st.LastHour != 0 {
				t.Fatalf("re-ingested drive = %+v, want a fresh healthy window at hour 0", st)
			}
			if led := m.ExportDrives()[3].Ledger; led.RowsRead != 1 || led.ByKind != nil {
				t.Fatalf("re-ingested ledger = %+v, want one clean row", led)
			}
		}},
		{"quarantine-only drive", func(t *testing.T, m *Monitor) {
			m.IngestClass(4, smart.HDD, nonFiniteRecord(0))
			if m.Tracked() != 0 {
				t.Fatal("quarantine-only drive tracked")
			}
			if _, ok := m.Status(4); ok {
				t.Fatal("quarantine-only drive has a status")
			}
			ds, ok := m.ExportDrives()[4]
			if !ok || ds.Tracked || ds.Ledger.RowsQuarantined != 1 {
				t.Fatalf("export = %+v, %v; want an untracked drive with one quarantined row", ds, ok)
			}
			if err := m.ImportDrive(4, DriveState{}); err == nil {
				t.Fatal("import over an existing ledger accepted")
			}
		}},
		{"wrong class against a tracked drive", func(t *testing.T, m *Monitor) {
			m.IngestClass(5, smart.HDD, record(0, 0.9))
			if a, kept := m.IngestClass(5, smart.SSD, record(1, 0.9)); kept || a != nil {
				t.Fatalf("class-mismatch record: alert=%v kept=%v", a, kept)
			}
			st, ok := m.Status(5)
			if !ok || st.Class != smart.HDD || st.LastHour != 0 {
				t.Fatalf("mismatch record changed the drive: %+v", st)
			}
			if n := m.Quality().ByField["device_class"]; n != 1 {
				t.Fatalf("device_class issues = %d, want 1", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			models, norms := mixedTestModels()
			m, err := NewMulti(models, norms, Config{Smoothing: 3})
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, m)
			checkSlotLedgers(t, m)
		})
	}
}
