package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Sealed envelope: the one container layout of snapshot.bin, models.bin
// and replication bootstrap images. All integers are little endian:
//
//	8-byte magic
//	u32 format version (only formats that have one)
//	u64 header fields (format-specific, fixed count)
//	u64 payload length
//	payload — gob encoding of the sealed value
//	u32 CRC-32 (IEEE) over version..payload
//
// The magic names the format, so one format is never opened as another;
// the CRC covers everything after it.
type envelope struct {
	name    string // "snapshot", "model artifact", ... for errors
	magic   [8]byte
	version uint32 // written first and required on open; 0 = the format has none
	fields  int    // u64 header fields between the version and the length
}

// maxSealedPayload caps the payload length an open trusts, so a corrupt
// length field cannot drive a huge allocation.
const maxSealedPayload = 1 << 32

// headerSize is the byte count from the magic through the payload length.
func (e envelope) headerSize() int {
	n := 8 + 8*e.fields + 8
	if e.version != 0 {
		n += 4
	}
	return n
}

// seal gob-encodes v behind the envelope header carrying fields.
func (e envelope) seal(v any, fields ...uint64) ([]byte, error) {
	hdr := append([]byte(nil), e.magic[:]...)
	if e.version != 0 {
		hdr = binary.LittleEndian.AppendUint32(hdr, e.version)
	}
	for _, f := range fields {
		hdr = binary.LittleEndian.AppendUint64(hdr, f)
	}
	hdr = binary.LittleEndian.AppendUint64(hdr, 0) // payload length, patched below
	n := len(hdr)
	buf := bytes.NewBuffer(hdr)
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return nil, fmt.Errorf("persist: encoding %s: %w", e.name, err)
	}
	out := buf.Bytes()
	binary.LittleEndian.PutUint64(out[n-8:n], uint64(len(out)-n))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[8:])), nil
}

// readHeader reads and validates the header: magic, version and the
// payload cap. It returns the header fields, the payload length and the
// raw header bytes after the magic (the CRC's prefix).
func (e envelope) readHeader(r io.Reader) ([]uint64, uint64, []byte, error) {
	hdr := make([]byte, e.headerSize())
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, nil, fmt.Errorf("persist: reading %s header: %w", e.name, err)
	}
	if [8]byte(hdr[:8]) != e.magic {
		return nil, 0, nil, fmt.Errorf("persist: bad %s magic", e.name)
	}
	p := hdr[8:]
	if e.version != 0 {
		if v := binary.LittleEndian.Uint32(p); v != e.version {
			return nil, 0, nil, fmt.Errorf("persist: %s version %d not supported (want %d)", e.name, v, e.version)
		}
		p = p[4:]
	}
	fields := make([]uint64, e.fields)
	for i := range fields {
		fields[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	n := binary.LittleEndian.Uint64(p[8*e.fields:])
	if n > maxSealedPayload {
		return nil, 0, nil, fmt.Errorf("persist: %s payload length %d exceeds cap", e.name, n)
	}
	return fields, n, hdr[8:], nil
}

// open reads a sealed envelope of exactly size bytes from r, checks its
// size against the header and its CRC, and gob-decodes the payload into
// v. It returns the header fields.
func (e envelope) open(r io.Reader, size int64, v any) ([]uint64, error) {
	fields, n, hdr, err := e.readHeader(r)
	if err != nil {
		return nil, err
	}
	if want := int64(e.headerSize()) + int64(n) + 4; size != want {
		return nil, fmt.Errorf("persist: %s is %d bytes, header implies %d", e.name, size, want)
	}
	rest := make([]byte, n+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("persist: reading %s payload: %w", e.name, err)
	}
	payload := rest[:n]
	sum := crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, payload)
	if sum != binary.LittleEndian.Uint32(rest[n:]) {
		return nil, fmt.Errorf("persist: %s checksum mismatch", e.name)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return nil, fmt.Errorf("persist: decoding %s: %w", e.name, err)
	}
	return fields, nil
}

// openFile opens the sealed file at path into v. os.IsNotExist on the
// error distinguishes a missing file from a corrupt one.
func (e envelope) openFile(path string, v any) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("persist: stat %s: %w", e.name, err)
	}
	return e.open(f, fi.Size(), v)
}

// commitFile atomically replaces dir/name with data: it writes dir/tmp,
// fsyncs it, renames it over name and fsyncs the directory. A crash at
// any point leaves either the previous file or the new one, never a
// partial write.
func commitFile(dir, tmp, name string, data []byte) error {
	tmpPath := filepath.Join(dir, tmp)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating %s: %w", tmp, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpPath, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("persist: committing %s: %w", name, err)
	}
	// The rename is only crash-durable once the directory entry is on
	// disk; without the directory fsync a crash can roll the commit back
	// to the previous file.
	return syncDir(dir)
}
