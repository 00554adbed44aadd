package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/quality"
	"disksig/internal/smart"
	"disksig/internal/wire"
)

// testMixedStore serves HDD and SSD records, each class with its own
// model.
func testMixedStore(t testing.TB, cfg fleet.Config) *fleet.Store {
	t.Helper()
	ssd := testModels()[0]
	ssd.Class = smart.SSD
	ssd.Group = 2
	s, err := fleet.New(append(testModels(), ssd),
		monitor.ClassNorms{HDD: testNormalizer(), SSD: testNormalizer()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mixedBatches is dirtyBatches with every third observation of each
// batch moved to an SSD drive, so batches mix both classes with
// missing (NaN), duplicate and out-of-order values.
func mixedBatches(drives, hours, batch int) [][]fleet.Observation {
	batches := dirtyBatches(drives, hours, batch)
	for _, b := range batches {
		for i := range b {
			if i%3 == 0 {
				b[i].Class = smart.SSD
				b[i].Serial = "SSD" + b[i].Serial
			}
		}
	}
	return batches
}

func TestRestoreMixedBatchesEqualsLive(t *testing.T) {
	dir := t.TempDir()
	store := testMixedStore(t, fleet.Config{Shards: 4})
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	nan := 0
	for _, b := range mixedBatches(20, 10, 50) {
		for _, o := range b {
			if o.Record.Values[smart.RRER] != o.Record.Values[smart.RRER] {
				nan++
			}
		}
		if _, _, err := m.LogBatch(b, func() fleet.BatchResult { return store.IngestBatch(b) }); err != nil {
			t.Fatal(err)
		}
	}
	if nan == 0 {
		t.Fatal("workload carries no missing values")
	}
	// Abandon m without closing it: the batches live only in the WAL.

	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	restored, rec, err := m2.Restore(fleet.Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTail || rec.StaleWAL || rec.WALBatches == 0 {
		t.Fatalf("Recovery = %+v", rec)
	}
	if q := restored.Quality(); q.Count(quality.NonFinite) == 0 {
		t.Fatal("replay quarantined no missing values")
	}
	if !reflect.DeepEqual(canonical(store.ExportState()), canonical(restored.ExportState())) {
		t.Fatal("state restored from a mixed-class WAL differs from the live state")
	}
}

// quarantiningRecord is a WAL record whose frame is intact — length and
// CRC-32C agree — but whose only observation names attribute 200, so
// the wire decoder quarantines it.
func quarantiningRecord(t *testing.T) []byte {
	t.Helper()
	rec, err := encodeRecord([]fleet.Observation{{Serial: "Q", Record: record(5, 0.5)}})
	if err != nil {
		t.Fatal(err)
	}
	frame := rec[recordPrefix:]
	// Version 1 frame: 5-byte header, 8-byte record header, 1 serial
	// byte, then the first triple's attribute index.
	frame[5+8+1] = 200
	binary.LittleEndian.PutUint32(frame[len(frame)-4:],
		crc32.Checksum(frame[:len(frame)-4], crc32.MakeTable(crc32.Castagnoli)))
	var rep quality.Report
	if _, err := new(wire.Decoder).Decode(frame, &rep); err != nil || rep.RowsQuarantined != 1 {
		t.Fatalf("crafted frame: err %v, quarantined %d; want a clean decode quarantining 1", err, rep.RowsQuarantined)
	}
	return rec
}

func TestRecordDecodingWithQuarantineIsCorrupt(t *testing.T) {
	bad := quarantiningRecord(t)
	if _, _, err := NewFrameIter(bad, new(wire.Decoder)).Next(); err == nil || err == io.EOF {
		t.Fatalf("follower iterator accepted a quarantining record: %v", err)
	}

	dir := t.TempDir()
	store := testStore(t, fleet.Config{Shards: 2})
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	good := []fleet.Observation{{Serial: "A", Record: record(1, 0.9)}}
	if _, _, err := m.LogBatch(good, func() fleet.BatchResult { return store.IngestBatch(good) }); err != nil {
		t.Fatal(err)
	}
	m.Close()
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bad); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	restored, rec, err := m2.Restore(fleet.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail || rec.WALBatches != 1 || rec.DroppedBytes != int64(len(bad)) ||
		rec.Quality.Count(quality.TruncatedInput) != 1 {
		t.Fatalf("Recovery = %+v, want the quarantining record dropped as a torn tail", rec)
	}
	if _, ok := restored.Drive("Q"); ok {
		t.Fatal("quarantining record applied")
	}
}

func TestLogBatchRejectsWhatTheFrameCannotCarry(t *testing.T) {
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for name, o := range map[string]fleet.Observation{
		"empty serial": {Record: record(1, 0.5)},
		"hour > int32": {Serial: "A", Record: record(1<<31, 0.5)},
		"bad class":    {Serial: "A", Class: smart.DeviceClass(9), Record: record(1, 0.5)},
	} {
		applied := false
		obs := []fleet.Observation{o}
		if _, _, err := m.LogBatch(obs, func() fleet.BatchResult { applied = true; return fleet.BatchResult{} }); err == nil || applied {
			t.Errorf("%s: err %v, applied %v; want a rejected, unapplied batch", name, err, applied)
		}
	}
	if got := m.Position(); got != StartPosition(0) {
		t.Fatalf("rejected batches moved the WAL to %s", got)
	}
}

func TestOpenRefusesOtherWALVersion(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walName)
	// A previous-format WAL: version 1 header, epoch 3, one record.
	old := append([]byte("DSKWAL\x00\x01"), 3, 0, 0, 0, 0, 0, 0, 0)
	old = append(old, 4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4)
	if err := os.WriteFile(walPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrWALVersion) {
		t.Fatalf("Open = %v, want ErrWALVersion", err)
	}
	if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("refused WAL changed on disk (err %v)", err)
	}

	// A header-only WAL holds no batches: it is replaced, which is the
	// upgrade path after a final snapshot under the previous build.
	if err := os.WriteFile(walPath, old[:walHeaderSize], 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over a header-only previous-format WAL: %v", err)
	}
	defer m.Close()
	if epoch, err := readWALEpoch(walPath); err != nil || epoch != 0 {
		t.Fatalf("reset WAL: epoch %d, err %v", epoch, err)
	}
}

// TestRestoresPreviousBuildFiles restores testdata/prev, a state
// directory the previous WAL format's build wrote from mixedBatches(20,
// 10, 50) into testMixedStore(Shards 4) followed by a final snapshot:
// snapshot.bin, models.bin (testArtifact(3)), the header-only
// version-1 wal.bin that snapshot left, and bootstrap.img (term 4,
// position 1:16). Sealed files keep their layout, so all of them open.
func TestRestoresPreviousBuildFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapshotName, modelsName, walName} {
		raw, err := os.ReadFile(filepath.Join("testdata", "prev", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	live := testMixedStore(t, fleet.Config{Shards: 4})
	for _, b := range mixedBatches(20, 10, 50) {
		live.IngestBatch(b)
	}
	want := canonical(live.ExportState())

	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	restored, rec, err := m.Restore(fleet.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec.WALBatches != 0 || rec.TornTail {
		t.Fatalf("Recovery = %+v", rec)
	}
	if !reflect.DeepEqual(want, canonical(restored.ExportState())) {
		t.Fatal("previous build's snapshot restores to a different state")
	}
	art, err := LoadModels(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art, testArtifact(3)) {
		t.Fatal("previous build's models.bin loads a different artifact")
	}
	img, err := os.ReadFile(filepath.Join("testdata", "prev", "bootstrap.img"))
	if err != nil {
		t.Fatal(err)
	}
	st, term, pos, err := DecodeBootstrap(img)
	if err != nil {
		t.Fatal(err)
	}
	if term != 4 || pos != (Position{Epoch: 1, Offset: 16}) || !reflect.DeepEqual(want, canonical(st)) {
		t.Fatalf("previous build's bootstrap image: term %d pos %s", term, pos)
	}
}
