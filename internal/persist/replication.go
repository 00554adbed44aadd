package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"disksig/internal/fleet"
	"disksig/internal/wire"
)

// Replication wire formats. The ship request carries raw WAL records —
// exactly the bytes the primary appended, checksum and all — prefixed
// with the sender's leadership term and the records' position in the
// primary's WAL, so the follower can both fence deposed senders and
// dedup re-shipped records against its high-water mark. The bootstrap
// image seals the full fleet state (the payload a snapshot holds) with
// the WAL position the follower must stream from.
//
//	ship request:    8-byte magic "DSKSHP\x00\x01" | u64 term |
//	                 u64 walEpoch | u64 fromOffset | raw WAL records
//	bootstrap image: sealed envelope, magic "DSKBTS\x00\x01", no
//	                 version, header fields u64 term | u64 walEpoch |
//	                 u64 walOffset, payload gob(fleet.State)
var shipMagic = [8]byte{'D', 'S', 'K', 'S', 'H', 'P', 0x00, 0x01}

// bootEnvelope seals bootstrap images.
var bootEnvelope = envelope{
	name:   "bootstrap image",
	magic:  [8]byte{'D', 'S', 'K', 'B', 'T', 'S', 0x00, 0x01},
	fields: 3,
}

const (
	// ShipContentType labels a replication ship request body.
	ShipContentType = "application/x-disksig-wal"
	// BootstrapContentType labels a bootstrap image body.
	BootstrapContentType = "application/x-disksig-bootstrap"
	// MaxShipBody caps a ship request body: the shipper chunks at ~1 MiB
	// but a single WAL frame can legally reach maxWALRecord.
	MaxShipBody = maxWALRecord + (1 << 20)

	shipHeaderSize = 8 + 8 + 8 + 8
)

// Position is a point in the primary's WAL stream: the WAL epoch and
// the byte offset within that epoch's file. Offsets always land on
// frame boundaries (walHeaderSize is the empty-WAL position). The
// follower's acked Position is the replication high-water mark.
type Position struct {
	Epoch  uint64 `json:"epoch"`
	Offset int64  `json:"offset"`
}

// Before reports whether p is strictly earlier in the stream than q.
// Epochs only ever advance (each snapshot bumps one), so ordering by
// (epoch, offset) is total.
func (p Position) Before(q Position) bool {
	if p.Epoch != q.Epoch {
		return p.Epoch < q.Epoch
	}
	return p.Offset < q.Offset
}

func (p Position) String() string {
	return fmt.Sprintf("%d:%d", p.Epoch, p.Offset)
}

// StartPosition returns the position of an empty WAL at the given
// epoch — the offset just past the header, where the first frame goes.
func StartPosition(epoch uint64) Position {
	return Position{Epoch: epoch, Offset: walHeaderSize}
}

// EncodeShipRequest frames raw WAL bytes for one ship request.
func EncodeShipRequest(term uint64, from Position, frames []byte) []byte {
	buf := make([]byte, shipHeaderSize, shipHeaderSize+len(frames))
	copy(buf[:8], shipMagic[:])
	binary.LittleEndian.PutUint64(buf[8:16], term)
	binary.LittleEndian.PutUint64(buf[16:24], from.Epoch)
	binary.LittleEndian.PutUint64(buf[24:32], uint64(from.Offset))
	return append(buf, frames...)
}

// DecodeShipRequest splits a ship request into its header and the raw
// WAL frame bytes (which may be empty — a heartbeat).
func DecodeShipRequest(body []byte) (term uint64, from Position, frames []byte, err error) {
	if len(body) < shipHeaderSize {
		return 0, Position{}, nil, fmt.Errorf("persist: ship request truncated at %d bytes", len(body))
	}
	if [8]byte(body[:8]) != shipMagic {
		return 0, Position{}, nil, fmt.Errorf("persist: bad ship request magic")
	}
	term = binary.LittleEndian.Uint64(body[8:16])
	from = Position{
		Epoch:  binary.LittleEndian.Uint64(body[16:24]),
		Offset: int64(binary.LittleEndian.Uint64(body[24:32])),
	}
	if from.Offset < walHeaderSize {
		return 0, Position{}, nil, fmt.Errorf("persist: ship request offset %d is inside the WAL header", from.Offset)
	}
	return term, from, body[shipHeaderSize:], nil
}

// FrameIter walks raw WAL records (a ship request payload) record by
// record, validating each frame's checksum and decoding its batch.
type FrameIter struct {
	data []byte
	dec  *wire.Decoder
}

// NewFrameIter iterates the records in data, decoding with dec. A
// decoder reused across ship requests keeps its interned serials and
// observation buffer, so a follower's steady-state decode allocates
// nothing per record.
func NewFrameIter(data []byte, dec *wire.Decoder) *FrameIter {
	return &FrameIter{data: data, dec: dec}
}

// Next decodes the next record, returning its observations (valid until
// the next call) and its on-the-wire size. It returns io.EOF at a clean
// end and a descriptive error at a torn or corrupt record (the
// remaining bytes cannot be trusted; the receiver should ask the sender
// to re-ship from its high-water mark).
func (it *FrameIter) Next() ([]fleet.Observation, int64, error) {
	if len(it.data) == 0 {
		return nil, 0, io.EOF
	}
	frame, size, err := splitRecord(it.data)
	if err != nil {
		return nil, 0, err
	}
	obs, err := decodeRecord(it.dec, frame)
	if err != nil {
		return nil, 0, err
	}
	it.data = it.data[size:]
	return obs, int64(size), nil
}

// EncodeBootstrap serializes a bootstrap image: the full fleet state
// plus the WAL position replication resumes from and the sender's term.
func EncodeBootstrap(st *fleet.State, term uint64, pos Position) ([]byte, error) {
	return bootEnvelope.seal(st, term, pos.Epoch, uint64(pos.Offset))
}

// DecodeBootstrap parses and checksums a bootstrap image.
func DecodeBootstrap(body []byte) (*fleet.State, uint64, Position, error) {
	st := &fleet.State{}
	f, err := bootEnvelope.open(bytes.NewReader(body), int64(len(body)), st)
	if err != nil {
		return nil, 0, Position{}, err
	}
	return st, f[0], Position{Epoch: f[1], Offset: int64(f[2])}, nil
}

// Position returns the durable end of the live WAL: every frame at an
// offset below it is fully on disk (modulo the OS write-back the WAL
// has always traded for throughput).
func (m *Manager) Position() Position {
	m.walMu.Lock()
	defer m.walMu.Unlock()
	return Position{Epoch: m.epoch, Offset: m.walEnd}
}

// errEpochGone reports that ReadWALFrames asked for an epoch the live
// WAL no longer has — a snapshot reset it underneath the reader. The
// shipper treats it as transient: Snapshot advances the shipper to the
// new epoch right after the reset.
var errEpochGone = fmt.Errorf("persist: WAL epoch superseded")

// ReadWALFrames reads whole frames from the live WAL starting at from,
// up to roughly maxBytes (always at least one whole frame when one is
// durable). It returns the raw frame bytes and the offset of the end of
// the last frame read. The read races no writer: walEnd only covers
// fully appended frames.
func (m *Manager) ReadWALFrames(epoch uint64, from int64, maxBytes int) ([]byte, int64, error) {
	m.walMu.Lock()
	curEpoch, end := m.epoch, m.walEnd
	m.walMu.Unlock()
	if epoch != curEpoch {
		return nil, 0, fmt.Errorf("%w (want %d, live %d)", errEpochGone, epoch, curEpoch)
	}
	if from < walHeaderSize || from > end {
		return nil, 0, fmt.Errorf("persist: WAL offset %d outside [%d, %d]", from, walHeaderSize, end)
	}
	if from == end {
		return nil, from, nil
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	f, err := os.Open(filepath.Join(m.dir, walName))
	if err != nil {
		return nil, 0, fmt.Errorf("persist: opening WAL for shipping: %w", err)
	}
	defer f.Close()

	size := int64(maxBytes)
	if end-from < size {
		size = end - from
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, from, size), buf); err != nil {
		return nil, 0, fmt.Errorf("persist: reading WAL frames at %d: %w", from, err)
	}
	// Trim to whole records; [from, end) holds only complete records, so
	// a partial record at the end of buf is purely a chunking artifact.
	n := 0
	for {
		_, size, err := splitRecord(buf[n:])
		if errors.Is(err, errTornRecord) {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("persist: WAL record at %d: %w", from+int64(n), err)
		}
		n += size
	}
	if n == 0 {
		// The first record alone exceeds maxBytes (which may be smaller
		// than even its length prefix): ship it whole anyway, progress
		// beats the chunk target.
		var prefix [recordPrefix]byte
		if _, err := io.ReadFull(io.NewSectionReader(f, from, recordPrefix), prefix[:]); err != nil {
			return nil, 0, fmt.Errorf("persist: reading WAL record length at %d: %w", from, err)
		}
		l, err := frameLen(prefix[:])
		if err != nil {
			return nil, 0, fmt.Errorf("persist: WAL record at %d: %w", from, err)
		}
		whole := make([]byte, recordPrefix+l)
		if _, err := io.ReadFull(io.NewSectionReader(f, from, int64(len(whole))), whole); err != nil {
			return nil, 0, fmt.Errorf("persist: reading oversized WAL record at %d: %w", from, err)
		}
		return whole, from + int64(len(whole)), nil
	}
	return buf[:n], from + int64(n), nil
}

// BootstrapImage captures a consistent full-state image and the WAL
// position replication continues from, holding out ingestion for the
// export exactly like Snapshot does.
func (m *Manager) BootstrapImage(s *fleet.Store) (*fleet.State, Position) {
	m.gate.Lock()
	defer m.gate.Unlock()
	st := s.ExportState()
	m.walMu.Lock()
	pos := Position{Epoch: m.epoch, Offset: m.walEnd}
	m.walMu.Unlock()
	return st, pos
}

// AttachShipper starts (replacing any previous) WAL shipping to a
// follower from the given position. The previous shipper, if any, is
// stopped — a follower re-bootstrapping supersedes its old stream.
func (m *Manager) AttachShipper(cfg ShipperConfig, from Position) *Shipper {
	sh := newShipper(m, cfg, from)
	m.shipMu.Lock()
	old := m.ship
	m.ship = sh
	m.shipMu.Unlock()
	if old != nil {
		old.Stop()
	}
	go sh.run()
	return sh
}

// AttachedShipper returns the live shipper, or nil when no follower is
// attached.
func (m *Manager) AttachedShipper() *Shipper {
	m.shipMu.Lock()
	defer m.shipMu.Unlock()
	return m.ship
}

// DetachShipper stops shipping (the follower, if it returns, must
// re-bootstrap).
func (m *Manager) DetachShipper() {
	m.shipMu.Lock()
	old := m.ship
	m.ship = nil
	m.shipMu.Unlock()
	if old != nil {
		old.Stop()
	}
}
