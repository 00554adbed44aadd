package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"disksig/internal/fleet"
)

// TestSealedLayouts pins the byte layout of the three sealed formats —
// magic, header fields, payload length and CRC at fixed offsets — and
// checks that one flipped payload byte fails each open. The flip lands
// inside a string value, so the payload still gob-decodes and only the
// CRC can catch it.
func TestSealedLayouts(t *testing.T) {
	store := testStore(t, fleet.Config{Shards: 2})
	store.IngestBatch(dirtyBatches(6, 4, 1000)[0])
	st := store.ExportState()

	// openFile writes raw as dir/name and runs open on the directory.
	openFile := func(name string, open func(dir string) error) func([]byte) error {
		return func(raw []byte) error {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			return open(dir)
		}
	}
	type field struct {
		off   int
		width int
		want  uint64
	}
	cases := []struct {
		name   string
		seal   func(dir string) ([]byte, error)
		open   func(raw []byte) error
		magic  string
		fields []field // version and format fields after the magic
		lenOff int
		marker string // a string value inside the payload
	}{
		{
			name: "snapshot",
			seal: func(dir string) ([]byte, error) {
				if _, err := writeSnapshot(dir, st, 7); err != nil {
					return nil, err
				}
				return os.ReadFile(filepath.Join(dir, snapshotName))
			},
			open: openFile(snapshotName, func(dir string) error {
				_, _, err := readSnapshot(dir)
				return err
			}),
			magic:  "DSKSNAP\x01",
			fields: []field{{8, 4, 1}, {12, 8, 7}},
			lenOff: 20,
			marker: "SN0003",
		},
		{
			name: "models",
			seal: func(dir string) ([]byte, error) {
				if _, err := SaveModels(dir, testArtifact(5)); err != nil {
					return nil, err
				}
				return os.ReadFile(ModelsPath(dir))
			},
			open: openFile(modelsName, func(dir string) error {
				_, err := LoadModels(dir)
				return err
			}),
			magic:  "DSKMODL\x01",
			fields: []field{{8, 4, 1}, {12, 8, 5}},
			lenOff: 20,
			marker: "deadbeef",
		},
		{
			name: "bootstrap",
			seal: func(string) ([]byte, error) {
				return EncodeBootstrap(st, 3, Position{Epoch: 9, Offset: 4242})
			},
			open: func(raw []byte) error {
				_, _, _, err := DecodeBootstrap(raw)
				return err
			},
			magic:  "DSKBTS\x00\x01",
			fields: []field{{8, 8, 3}, {16, 8, 9}, {24, 8, 4242}},
			lenOff: 32,
			marker: "SN0003",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw, err := c.seal(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if got := string(raw[:8]); got != c.magic {
				t.Fatalf("magic %q, want %q", got, c.magic)
			}
			for _, f := range c.fields {
				got := binary.LittleEndian.Uint64(raw[f.off:])
				if f.width == 4 {
					got = uint64(binary.LittleEndian.Uint32(raw[f.off:]))
				}
				if got != f.want {
					t.Errorf("field at offset %d = %d, want %d", f.off, got, f.want)
				}
			}
			payload := len(raw) - (c.lenOff + 8) - 4
			if got := binary.LittleEndian.Uint64(raw[c.lenOff:]); got != uint64(payload) {
				t.Fatalf("payload length %d, want %d", got, payload)
			}
			if got, want := binary.LittleEndian.Uint32(raw[len(raw)-4:]), crc32.ChecksumIEEE(raw[8:len(raw)-4]); got != want {
				t.Fatalf("CRC %08x, want CRC-32 IEEE of header fields and payload %08x", got, want)
			}
			if err := c.open(raw); err != nil {
				t.Fatalf("pristine %s does not open: %v", c.name, err)
			}
			at := bytes.Index(raw[c.lenOff+8:], []byte(c.marker))
			if at < 0 {
				t.Fatalf("payload holds no %q", c.marker)
			}
			flipped := append([]byte(nil), raw...)
			flipped[c.lenOff+8+at] ^= 0x01
			if err := c.open(flipped); err == nil {
				t.Fatalf("%s with a flipped payload byte opened", c.name)
			}
		})
	}
}
