package persist

import (
	"fmt"
	"os"
	"path/filepath"

	"disksig/internal/monitor"
	"disksig/internal/smart"
)

// ModelArtifact is one versioned model set produced by a training or
// retraining run: everything a store needs to score records, plus the
// provenance that makes the run auditable and reproducible.
type ModelArtifact struct {
	// Version is the model-set version; promoted artifacts carry the
	// version the fleet swapped to.
	Version int
	// Fingerprint is the deterministic FNV-64a digest of the training
	// inputs (drive serials, hours, labels and the training config).
	// Two retrains over identical telemetry produce identical
	// fingerprints.
	Fingerprint string
	// TrainedMaxHour is the fleet telemetry hour the training snapshot
	// was taken at.
	TrainedMaxHour int
	// FailedDrives/GoodDrives are the harvested training cohort sizes.
	FailedDrives int
	GoodDrives   int
	// Models and Norm are the trained scoring models and normalizer.
	Models []monitor.GroupModel
	Norm   *smart.Normalizer
	// Notes carries training-quality caveats (e.g. clamped windows).
	Notes []string
}

// Norms returns the artifact's normalizer as the HDD entry of
// ClassNorms: retraining produces HDD model sets only, so a swap to an
// artifact leaves every other class's models in place.
func (a *ModelArtifact) Norms() monitor.ClassNorms {
	return monitor.ClassNorms{HDD: a.Norm}
}

// modelEnvelope seals models.bin: magic "DSKMODL\x01", u32 version 1,
// one header field — the model-set version, checked against the
// payload's on load — and the gob-encoded *ModelArtifact. Artifacts are
// committed like snapshots: a crash mid-write never corrupts the
// previous artifact.
var modelEnvelope = envelope{
	name:    "model artifact",
	magic:   [8]byte{'D', 'S', 'K', 'M', 'O', 'D', 'L', 0x01},
	version: 1,
	fields:  1,
}

const (
	modelsName = "models.bin"
	modelsTmp  = "models.tmp"
)

// ModelsPath returns the artifact path inside a state directory.
func ModelsPath(dir string) string { return filepath.Join(dir, modelsName) }

// SaveModels commits a model artifact atomically into the state
// directory, returning the file size.
func SaveModels(dir string, art *ModelArtifact) (int64, error) {
	if art == nil {
		return 0, fmt.Errorf("persist: saving nil model artifact")
	}
	data, err := modelEnvelope.seal(art, uint64(art.Version))
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("persist: creating state dir: %w", err)
	}
	if err := commitFile(dir, modelsTmp, modelsName, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// LoadModels reads, checksums and decodes the committed model artifact
// of a state directory. os.IsNotExist on the error distinguishes "no
// artifact yet" from corruption.
func LoadModels(dir string) (*ModelArtifact, error) {
	art := &ModelArtifact{}
	fields, err := modelEnvelope.openFile(ModelsPath(dir), art)
	if err != nil {
		return nil, err
	}
	if art.Version <= 0 || uint64(art.Version) != fields[0] {
		return nil, fmt.Errorf("persist: model artifact header version %d disagrees with payload version %d",
			fields[0], art.Version)
	}
	return art, nil
}
