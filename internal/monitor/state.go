package monitor

import (
	"fmt"

	"disksig/internal/smart"
)

// DriveState is the serializable per-drive state of a monitor: the
// smoothing windows and severity for tracked drives, plus the drive's
// quality-ledger contribution. Drives whose every record was
// quarantined have a ledger but Tracked is false — restoring them must
// not make them count as tracked.
type DriveState struct {
	// Tracked reports whether the drive has monitor state (smoothing
	// windows, severity); false for quarantine-only drives.
	Tracked bool
	// Class is the drive's device class. The zero value is HDD, so
	// snapshots that predate device classes restore as HDD drives.
	Class    smart.DeviceClass
	LastHour int
	Seen     bool
	Severity Severity
	// Recent holds the last Smoothing raw scores per group model.
	Recent [][]float64
	// Ledger is the drive's contribution to the quality report.
	Ledger DriveLedger
}

// ExportDrives deep-copies the per-drive state of every drive the
// monitor knows — tracked or quarantine-only. The result is
// serialization-ready: the caller owns it, and re-importing it into a
// fresh monitor reproduces the original state exactly.
func (m *Monitor) ExportDrives() map[int]DriveState {
	out := make(map[int]DriveState, m.tracked)
	for id := range m.slots {
		s := &m.slots[id]
		if !s.hasLedger {
			continue // an unused ID: every drive the monitor knows has a ledger
		}
		ds := DriveState{Ledger: s.ledger.clone()}
		if s.tracked {
			st := &s.state
			ds.Tracked = true
			ds.Class = st.class
			ds.LastHour = st.lastHour
			ds.Seen = st.seen
			ds.Severity = st.severity
			ds.Recent = make([][]float64, len(st.recent))
			for gi, w := range st.recent {
				ds.Recent[gi] = append([]float64(nil), w...)
			}
		}
		out[id] = ds
	}
	return out
}

// ImportDrive installs one exported drive state into a monitor built
// with the same models and config. The state is validated first — a
// corrupted snapshot yields an error, never an out-of-range index or a
// smoothing window wider than the configuration allows. The drive's
// ledger is re-added to the monitor-wide quality report, so restored
// accounting sums back up and a later Forget releases it cleanly. The
// drive ID follows IngestClass's contract; a negative one is an error.
func (m *Monitor) ImportDrive(driveID int, st DriveState) error {
	if driveID < 0 {
		return fmt.Errorf("monitor: negative drive ID %d", driveID)
	}
	if s := m.known(driveID); s != nil && s.tracked {
		return fmt.Errorf("monitor: drive %d already tracked", driveID)
	} else if s != nil && s.hasLedger {
		return fmt.Errorf("monitor: drive %d already has a ledger", driveID)
	}
	if st.Ledger.RowsRead < 0 || st.Ledger.RowsQuarantined < 0 || st.Ledger.RowsQuarantined > st.Ledger.RowsRead {
		return fmt.Errorf("monitor: drive %d ledger rows invalid (%d read, %d quarantined)",
			driveID, st.Ledger.RowsRead, st.Ledger.RowsQuarantined)
	}
	for k, n := range st.Ledger.ByKind {
		if !k.Valid() || n < 0 {
			return fmt.Errorf("monitor: drive %d ledger has invalid kind %d count %d", driveID, int(k), n)
		}
	}
	for f, n := range st.Ledger.ByField {
		if f == "" || n < 0 {
			return fmt.Errorf("monitor: drive %d ledger has invalid field count %q=%d", driveID, f, n)
		}
	}
	if st.Tracked {
		if !st.Class.Valid() || m.classModels[st.Class] == 0 {
			return fmt.Errorf("monitor: drive %d has class %v, which this monitor has no models for", driveID, st.Class)
		}
		if st.Severity < Healthy || st.Severity > Critical {
			return fmt.Errorf("monitor: drive %d has invalid severity %d", driveID, int(st.Severity))
		}
		if len(st.Recent) != len(m.models) {
			return fmt.Errorf("monitor: drive %d has %d score windows, monitor has %d models",
				driveID, len(st.Recent), len(m.models))
		}
		for gi, w := range st.Recent {
			if len(w) > m.cfg.Smoothing {
				return fmt.Errorf("monitor: drive %d group window %d has %d scores, smoothing cap is %d",
					driveID, gi, len(w), m.cfg.Smoothing)
			}
		}
	}

	s := m.slotFor(driveID)
	s.hasLedger = true
	s.ledger = st.Ledger.clone()
	led := &s.ledger
	m.quality.AddRows(led.RowsRead, led.RowsQuarantined, 0)
	for k, n := range led.ByKind {
		m.quality.ByKind[k] += n
	}
	for f, n := range led.ByField {
		if m.quality.ByField == nil {
			m.quality.ByField = map[string]int{}
		}
		m.quality.ByField[f] += n
	}
	if st.Tracked {
		s.tracked = true
		m.tracked++
		s.state = driveState{
			class:    st.Class,
			lastHour: st.LastHour,
			seen:     st.Seen,
			severity: st.Severity,
			recent:   m.newWindows(st.Recent),
		}
	}
	return nil
}
