package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"disksig/internal/quality"
	"disksig/internal/smart"
)

func nonFiniteRecord(hour int) smart.Record {
	var v smart.Values
	v[smart.RRER] = math.NaN()
	return smart.Record{Hour: hour, Values: v}
}

// canonicalState strips best-effort diagnostics so states from
// different runs compare on exact content only.
func canonicalState(st *State) *State {
	st.Quality.StripDiagnostics()
	return st
}

// dirtyFleetStream builds a deterministic stream with clean records,
// duplicates, out-of-order records and non-finite records across many
// drives, exercising every ledger path.
func dirtyFleetStream(drives, hours int) []Observation {
	var obs []Observation
	for h := 0; h < hours; h++ {
		for d := 0; d < drives; d++ {
			serial := fmt.Sprintf("SN%04d", d)
			score := 1 - 2*float64(h)/float64(hours-1)
			switch {
			case d%7 == 3 && h%5 == 2:
				obs = append(obs, Observation{Serial: serial, Record: nonFiniteRecord(h)})
			case d%5 == 1 && h%4 == 3:
				obs = append(obs, Observation{Serial: serial, Record: record(h-2, score)}) // out of order
			case d%3 == 2 && h%6 == 1:
				obs = append(obs, Observation{Serial: serial, Record: record(h, score)})
				obs = append(obs, Observation{Serial: serial, Record: record(h, score-0.01)}) // duplicate
			default:
				obs = append(obs, Observation{Serial: serial, Record: record(h, score)})
			}
		}
	}
	// One drive that only ever reports garbage: ledger without tracking.
	obs = append(obs, Observation{Serial: "SN-GARBAGE", Record: nonFiniteRecord(0)})
	return obs
}

func TestExportRestoreRoundTrip(t *testing.T) {
	src := testStore(t, Config{Shards: 8, Workers: 4})
	src.IngestBatch(dirtyFleetStream(40, 12))

	st := src.ExportState()
	if len(st.Drives) != 41 {
		t.Fatalf("exported %d drives, want 41", len(st.Drives))
	}
	for i := 1; i < len(st.Drives); i++ {
		if st.Drives[i-1].Serial >= st.Drives[i].Serial {
			t.Fatal("exported drives not sorted by serial")
		}
	}
	if !st.HasHour {
		t.Fatal("exported state has no max hour")
	}

	// Restore at several shard/worker counts: the re-exported state must
	// be identical (modulo diagnostics) and behavior must match.
	for _, cfg := range []Config{
		{Shards: 1, Workers: 1},
		{Shards: 8, Workers: 4},
		{Shards: 32, Workers: 7},
	} {
		got, err := Restore(st, cfg)
		if err != nil {
			t.Fatalf("Restore(shards=%d): %v", cfg.Shards, err)
		}
		if got.Tracked() != src.Tracked() {
			t.Fatalf("Tracked = %d restored at %d shards, want %d", got.Tracked(), cfg.Shards, src.Tracked())
		}
		if h, ok := got.MaxHour(); !ok || h != st.MaxHour {
			t.Fatalf("MaxHour = %d,%v restored, want %d", h, ok, st.MaxHour)
		}
		want := canonicalState(src.ExportState())
		re := canonicalState(got.ExportState())
		if !reflect.DeepEqual(want, re) {
			t.Fatalf("state re-exported after restore at %d shards differs", cfg.Shards)
		}
		// Behavior parity: same follow-up batch, same alerts and deltas.
		next := dirtyFleetStream(40, 12)[:100]
		for i := range next {
			next[i].Record.Hour += 100
		}
		a := src.IngestBatch(next)
		b := got.IngestBatch(next)
		a.Quality.StripDiagnostics()
		b.Quality.StripDiagnostics()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("post-restore batch diverges at %d shards", cfg.Shards)
		}
		// Undo the parity batch on src so the next loop iteration compares
		// against the original exported state.
		src = testStore(t, Config{Shards: 8, Workers: 4})
		src.IngestBatch(dirtyFleetStream(40, 12))
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	src := testStore(t, Config{Shards: 4})
	src.IngestBatch(dirtyFleetStream(10, 6))
	base := src.ExportState()

	cases := []struct {
		name   string
		mutate func(*State)
	}{
		{"duplicate serial", func(st *State) { st.Drives = append(st.Drives, st.Drives[0]) }},
		{"empty serial", func(st *State) { st.Drives[0].Serial = "" }},
		{"ledger does not sum", func(st *State) { st.Quality.RowsRead++ }},
		{"bad severity", func(st *State) {
			for i := range st.Drives {
				if st.Drives[i].State.Tracked {
					st.Drives[i].State.Severity = 99
					return
				}
			}
			panic("no tracked drive in state")
		}},
		{"no models", func(st *State) { st.Models = nil }},
		{"nil normalizer", func(st *State) { st.Norm = nil }},
		{"drives without hour", func(st *State) { st.HasHour = false }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := src.ExportState()
			tc.mutate(st)
			if _, err := Restore(st, Config{Shards: 4}); err == nil {
				t.Fatal("corrupt state restored without error")
			}
		})
	}
	if _, err := Restore(base, Config{Shards: 4}); err != nil {
		t.Fatalf("pristine state failed to restore: %v", err)
	}
}

func TestRestoreEmptyFleet(t *testing.T) {
	src := testStore(t, Config{Shards: 4})
	got, err := Restore(src.ExportState(), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Tracked() != 0 {
		t.Fatalf("Tracked = %d for restored empty fleet", got.Tracked())
	}
	if _, ok := got.MaxHour(); ok {
		t.Fatal("restored empty fleet claims a max hour")
	}
}

func TestRemoveReleasesQuality(t *testing.T) {
	s := testStore(t, Config{Shards: 2})
	ingest(s, "A", record(0, 0.9))
	ingest(s, "A", nonFiniteRecord(1))
	ingest(s, "B", record(0, 0.9))
	if q := s.Quality(); q.RowsRead != 3 || q.RowsQuarantined != 1 {
		t.Fatalf("quality before Remove: %v", q.Summary())
	}
	if !s.Remove("A") {
		t.Fatal("Remove(A) = false")
	}
	q := s.Quality()
	if q.RowsRead != 1 || q.RowsQuarantined != 0 || q.Count(quality.NonFinite) != 0 {
		t.Fatalf("removed drive's quality contribution leaked: %v", q.Summary())
	}
	// Quarantine-only drive: Remove reports false (never tracked) but
	// must still release the accounting.
	ingest(s, "C", nonFiniteRecord(0))
	if s.Remove("C") {
		t.Fatal("Remove of a quarantine-only drive returned true")
	}
	if q := s.Quality(); q.RowsQuarantined != 0 {
		t.Fatalf("quarantine-only drive leaked on Remove: %v", q.Summary())
	}
}

func TestEvictStaleEmptyStore(t *testing.T) {
	s := testStore(t, Config{Shards: 2, TTLHours: 24})
	if n := s.EvictStale(); n != 0 {
		t.Fatalf("EvictStale on empty store evicted %d", n)
	}
}

func TestEvictStaleSingleDrive(t *testing.T) {
	// A drive whose only sample just arrived defines the fleet's newest
	// hour itself, so it can never be TTL-stale — whatever the hour.
	for _, hour := range []int{0, -5000, math.MinInt, math.MaxInt} {
		s := testStore(t, Config{Shards: 2, TTLHours: 24})
		ingest(s, "ONLY", record(hour, 0.9))
		if n := s.EvictStale(); n != 0 {
			t.Fatalf("EvictStale evicted the only drive (hour %d)", hour)
		}
		if _, ok := s.Drive("ONLY"); !ok {
			t.Fatalf("only drive lost after EvictStale (hour %d)", hour)
		}
	}
}

func TestEvictStaleMinIntDoesNotWrap(t *testing.T) {
	// Newest hour near MinInt: the cutoff subtraction underflows; a
	// wrapped cutoff would evict a fresh drive.
	s := testStore(t, Config{Shards: 2, TTLHours: 1000})
	ingest(s, "OLD", record(math.MinInt, 0.9))
	ingest(s, "NEW", record(math.MinInt+10, 0.9))
	if n := s.EvictStale(); n != 0 {
		t.Fatalf("underflowed cutoff evicted %d drives", n)
	}
}

// TestChurnReusesDriveIDs replaces a whole population — half removed,
// half TTL-evicted — and checks that the new serials take over the freed
// IDs instead of growing the shards' per-drive slices, and that the
// churned store exports exactly what a fresh replay of the survivors
// does.
func TestChurnReusesDriveIDs(t *testing.T) {
	const n = 64
	cfg := Config{Shards: 4, TTLHours: 10, HistoryHours: 4}
	batches := func(prefix string, from int) [][]Observation {
		var out [][]Observation
		for h := from; h < from+3; h++ {
			var b []Observation
			for d := 0; d < n; d++ {
				b = append(b, Observation{Serial: fmt.Sprintf("%s-%03d", prefix, d), Record: record(h, 0.9-0.1*float64(h-from))})
			}
			out = append(out, b)
		}
		return out
	}
	live := func(s *Store) []int {
		out := make([]int, len(s.shards))
		for si, sh := range s.shards {
			out[si] = len(sh.ids)
		}
		return out
	}

	s := testStore(t, cfg)
	for _, b := range batches("old", 0) {
		s.IngestBatch(b)
	}
	peak := live(s)
	for d := 0; d < n/2; d++ {
		if !s.Remove(fmt.Sprintf("old-%03d", d)) {
			t.Fatalf("Remove(old-%03d) = false", d)
		}
	}
	// A quarantined record advances telemetry time, so the rest go stale.
	ingest(s, fmt.Sprintf("old-%03d", n-1), nonFiniteRecord(100))
	if got := s.EvictStale(); got != n/2 {
		t.Fatalf("EvictStale evicted %d, want %d", got, n/2)
	}
	for si, sh := range s.shards {
		if len(sh.ids) != 0 || len(sh.free) != len(sh.serials) {
			t.Fatalf("shard %d after churn: %d live, %d free of %d IDs", si, len(sh.ids), len(sh.free), len(sh.serials))
		}
		for id, serial := range sh.serials {
			if serial != "" || sh.history[id] != nil {
				t.Fatalf("shard %d ID %d still holds serial %q / %d history records", si, id, serial, len(sh.history[id]))
			}
		}
	}

	fresh := testStore(t, cfg)
	for _, b := range batches("new", 100) {
		s.IngestBatch(b)
		fresh.IngestBatch(b)
	}
	for si, now := range live(s) {
		peak[si] = max(peak[si], now)
		if got := len(s.shards[si].serials); got > peak[si] {
			t.Errorf("shard %d holds %d IDs, peak live count %d", si, got, peak[si])
		}
	}
	if s.Tracked() != n {
		t.Fatalf("Tracked = %d after churn, want %d", s.Tracked(), n)
	}
	if got, want := canonicalState(s.ExportState()), canonicalState(fresh.ExportState()); !reflect.DeepEqual(got, want) {
		t.Fatal("churned store exports differently from a fresh replay of its surviving drives")
	}
}
