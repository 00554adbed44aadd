package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"disksig/internal/fleet"
	"disksig/internal/quality"
	"disksig/internal/wire"
)

// WAL file layout:
//
//	header:  8-byte magic "DSKWAL\x00\x02" | u64 epoch (little endian)
//	records: u32 frame length (little endian) | wire frame
//
// A record is the batch framed exactly as the binary ingest API frames
// it (internal/wire): the frame's CRC-32C trailer is the record
// checksum, and wire.Decoder is the only observation codec on the
// durability and replication path. LogBatch never writes a frame that
// decodes with a quarantined record, so one that does is corrupt.
//
// Appends are unbuffered single writes: a record is either fully in the
// file or it is the torn tail the next restore quarantines. There is no
// fsync per record — the WAL bounds data loss to the records written
// after the last completed write-back, which is the usual trade for an
// ingest path that must keep up with telemetry.
var walMagic = [8]byte{'D', 'S', 'K', 'W', 'A', 'L', 0x00, 0x02}

const (
	walHeaderSize = 16
	// recordPrefix is the u32 frame length ahead of every record.
	recordPrefix = 4
	// maxWALRecord caps one record's frame so a corrupt length field
	// cannot make the reader attempt a multi-gigabyte allocation.
	maxWALRecord = 64 << 20
)

// ErrWALVersion reports a WAL written in another version of the format.
// Open refuses one that holds records rather than truncating it: its
// batches were acknowledged, and only the build that wrote it can
// replay them.
var ErrWALVersion = errors.New("persist: WAL format version not supported")

// errWALEnd reports a clean end of WAL: the previous record ended
// exactly at EOF.
var errWALEnd = errors.New("persist: end of WAL")

// dirSyncs counts directory fsyncs, so tests can pin that file
// creation and snapshot commits actually flush the directory entry.
var dirSyncs atomic.Uint64

// syncDir fsyncs a directory: on POSIX filesystems a freshly created
// (or renamed-over) file is only crash-durable once its directory
// entry is, and that takes an fsync of the directory itself. Failure
// is returned, not ignored — a WAL whose file can vanish across a
// crash is not a write-ahead log.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: opening state dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: syncing state dir: %w", err)
	}
	dirSyncs.Add(1)
	return nil
}

// createWAL truncates/creates the WAL file and writes the header for
// the given epoch.
func createWAL(path string, epoch uint64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: creating WAL: %w", err)
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: writing WAL header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: syncing WAL header: %w", err)
	}
	// The file's data is synced; its directory entry is not until the
	// directory itself is. Without this, a crash right after the reset
	// can resurface the old WAL (or no WAL at all) under a new epoch.
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// parseWALHeader validates a WAL header and returns its epoch.
func parseWALHeader(hdr [walHeaderSize]byte) (uint64, error) {
	switch {
	case [8]byte(hdr[:8]) == walMagic:
		return binary.LittleEndian.Uint64(hdr[8:]), nil
	case string(hdr[:6]) == string(walMagic[:6]):
		return 0, fmt.Errorf("%w: header %q, this build reads %q; restore and snapshot the directory with the build that wrote it",
			ErrWALVersion, hdr[:8], walMagic[:])
	default:
		return 0, fmt.Errorf("persist: bad WAL magic")
	}
}

// readWALEpoch reads and validates the WAL header, returning its epoch.
func readWALEpoch(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("persist: reading WAL header: %w", err)
	}
	return parseWALHeader(hdr)
}

// encodeRecord frames one batch as a WAL record. The wire encoder
// rejects what the frame cannot carry: an empty or over-long serial, an
// hour outside int32, an invalid device class.
func encodeRecord(obs []fleet.Observation) ([]byte, error) {
	rec, err := wire.AppendBatch(make([]byte, recordPrefix, recordPrefix+wire.EncodedSize(obs)), obs)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	n := len(rec) - recordPrefix
	if n > maxWALRecord {
		return nil, fmt.Errorf("persist: batch of %d observations exceeds the %d-byte record cap", len(obs), maxWALRecord)
	}
	binary.LittleEndian.PutUint32(rec, uint32(n))
	return rec, nil
}

// frameLen parses a record's length prefix: the one place a WAL record
// is delimited, for restore, the follower and the shipper's chunker.
func frameLen(prefix []byte) (int, error) {
	n := binary.LittleEndian.Uint32(prefix)
	if n > maxWALRecord {
		return 0, fmt.Errorf("persist: record length %d exceeds cap", n)
	}
	return int(n), nil
}

// errTornRecord reports a record cut short by the end of the buffer.
var errTornRecord = errors.New("persist: torn record")

// splitRecord delimits the first record of b, returning its frame and
// its total size including the length prefix.
func splitRecord(b []byte) ([]byte, int, error) {
	if len(b) < recordPrefix {
		return nil, 0, fmt.Errorf("%w: %d-byte length prefix", errTornRecord, len(b))
	}
	n, err := frameLen(b)
	if err != nil {
		return nil, 0, err
	}
	if len(b)-recordPrefix < n {
		return nil, 0, fmt.Errorf("%w: %d of %d frame bytes", errTornRecord, len(b)-recordPrefix, n)
	}
	return b[recordPrefix : recordPrefix+n], recordPrefix + n, nil
}

// decodeRecord decodes one record's frame. A frame that decodes with a
// quarantined record is corrupt — LogBatch never writes one — so the
// caller treats it like a checksum failure.
func decodeRecord(dec *wire.Decoder, frame []byte) ([]fleet.Observation, error) {
	var rep quality.Report
	obs, err := dec.Decode(frame, &rep)
	if err != nil {
		return nil, fmt.Errorf("persist: record: %w", err)
	}
	if rep.RowsQuarantined > 0 {
		return nil, fmt.Errorf("persist: record decodes with %d quarantined observations", rep.RowsQuarantined)
	}
	return obs, nil
}

// walReader iterates the records of a WAL file, tracking the offset of
// the end of the last successfully decoded record so a torn tail can be
// truncated away precisely.
type walReader struct {
	f      *os.File
	br     *bufio.Reader
	dec    wire.Decoder
	epoch  uint64
	size   int64
	offset int64 // end of the last good record (starts after the header)
}

// openWALReader opens the WAL and validates its header.
func openWALReader(path string) (*walReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: stat WAL: %w", err)
	}
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: reading WAL header: %w", err)
	}
	epoch, err := parseWALHeader(hdr)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walReader{
		f:      f,
		br:     bufio.NewReaderSize(f, 1<<20),
		epoch:  epoch,
		size:   fi.Size(),
		offset: walHeaderSize,
	}, nil
}

// Epoch returns the WAL's epoch.
func (r *walReader) Epoch() uint64 { return r.epoch }

// Offset returns the end of the last successfully decoded record.
func (r *walReader) Offset() int64 { return r.offset }

// Remaining returns how many bytes follow the last good record.
func (r *walReader) Remaining() int64 { return r.size - r.offset }

// Next returns the next record's observations, errWALEnd at a clean end
// of file, or a decode error at a torn/corrupt record. The observations
// are valid until the next call.
func (r *walReader) Next() ([]fleet.Observation, error) {
	var prefix [recordPrefix]byte
	if _, err := io.ReadFull(r.br, prefix[:]); err != nil {
		if err == io.EOF {
			return nil, errWALEnd
		}
		return nil, fmt.Errorf("persist: torn record length: %w", err)
	}
	n, err := frameLen(prefix[:])
	if err != nil {
		return nil, err
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r.br, frame); err != nil {
		return nil, fmt.Errorf("persist: torn record frame: %w", err)
	}
	obs, err := decodeRecord(&r.dec, frame)
	if err != nil {
		return nil, err
	}
	r.offset += recordPrefix + int64(n)
	return obs, nil
}

// Close releases the file handle.
func (r *walReader) Close() error { return r.f.Close() }
