package persist

import (
	"os"
	"path/filepath"

	"disksig/internal/fleet"
)

// snapshotEnvelope seals snapshot.bin: magic "DSKSNAP\x01", u32 version
// 1, one header field — the epoch of the WAL that begins after this
// snapshot — and the gob-encoded *fleet.State.
var snapshotEnvelope = envelope{
	name:    "snapshot",
	magic:   [8]byte{'D', 'S', 'K', 'S', 'N', 'A', 'P', 0x01},
	version: 1,
	fields:  1,
}

// writeSnapshot seals the state and commits it atomically, returning
// the file size.
func writeSnapshot(dir string, st *fleet.State, walEpoch uint64) (int64, error) {
	data, err := snapshotEnvelope.seal(st, walEpoch)
	if err != nil {
		return 0, err
	}
	if err := commitFile(dir, snapshotTmp, snapshotName, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// readSnapshotEpoch reads and validates only the snapshot header,
// returning the WAL epoch it names.
func readSnapshotEpoch(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fields, _, _, err := snapshotEnvelope.readHeader(f)
	if err != nil {
		return 0, err
	}
	return fields[0], nil
}

// readSnapshot reads, checksums and decodes a committed snapshot,
// returning the state and the WAL epoch it names.
func readSnapshot(dir string) (*fleet.State, uint64, error) {
	st := &fleet.State{}
	fields, err := snapshotEnvelope.openFile(filepath.Join(dir, snapshotName), st)
	if err != nil {
		return nil, 0, err
	}
	return st, fields[0], nil
}
