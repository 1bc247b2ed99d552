package ingest

import (
	"fmt"

	"accelproc/internal/seismic"
)

// QCConfig parameterizes the record sanity gate.  The structural checks —
// all three components present, equal lengths, one positive agreed sample
// interval — always run: the pipeline cannot process a record that fails
// them.  The threshold checks are individually disabled at their zero
// value, so the zero QCConfig is the permissive structural-only gate.
type QCConfig struct {
	// MinDuration rejects records spanning fewer seconds (ErrDurationTooShort).
	// 0 disables.
	MinDuration float64
	// ClipRun rejects a component with at least this many consecutive
	// samples pegged at the clip level (ErrClipped).  0 disables.
	ClipRun int
	// ClipLevel is the absolute amplitude (gal) treated as the clip rail.
	// 0 means "the component's own absolute maximum" — the usual case,
	// since a clipped sensor reports a flat run at its own extreme.
	ClipLevel float64
	// GapRun rejects a component with at least this many consecutive
	// identical samples anywhere below the clip rail (ErrGap) — a
	// dead-channel or telemetry-dropout signature.  0 disables.
	GapRun int
}

// DefaultQC is the threshold set the -qc CLI flag enables: tuned so clean
// synthetic records (noise floors never repeat a sample) pass untouched.
func DefaultQC() QCConfig {
	return QCConfig{MinDuration: 1, ClipRun: 8, GapRun: 64}
}

// sampleChecks reports whether the gate needs the sample payload (clip and
// gap scans); the header-only checks can run before any sample is read.
func (c QCConfig) sampleChecks() bool { return c.ClipRun > 0 || c.GapRun > 0 }

// String is the stable serialization folded into action-cache keys and the
// run journal's parameter digest, so changing the gate invalidates cached
// decode results and blocks cross-configuration resumes.
func (c QCConfig) String() string {
	return fmt.Sprintf("qc{dur=%g clip=%d@%g gap=%d}", c.MinDuration, c.ClipRun, c.ClipLevel, c.GapRun)
}

// Check runs the QC gate over a decoded record, returning nil or a
// *QCError wrapping the defect class sentinel.  Checks run structural
// first, then thresholds, and the first failure wins — so each synthetic
// defect maps to one deterministic reason.
func (c QCConfig) Check(rec Record) error {
	// Structural: every component present.
	for ci, comp := range seismic.Components {
		if len(rec.Accel[ci]) == 0 {
			return qcErrf(rec.Station, ErrMissingComponent, "no %s samples", comp)
		}
	}
	// Structural: equal component lengths.
	n := len(rec.Accel[0])
	for ci := 1; ci < len(rec.Accel); ci++ {
		if len(rec.Accel[ci]) != n {
			return qcErrf(rec.Station, ErrComponentLengthMismatch,
				"%s has %d samples, %s has %d",
				seismic.Components[0], n, seismic.Components[ci], len(rec.Accel[ci]))
		}
	}
	// Structural: one positive agreed sample interval.
	if err := c.checkDT(rec); err != nil {
		return err
	}
	if c.MinDuration > 0 {
		if dur := float64(n-1) * rec.DT[0]; dur < c.MinDuration {
			return qcErrf(rec.Station, ErrDurationTooShort,
				"duration %.3fs < minimum %.3fs", dur, c.MinDuration)
		}
	}
	if c.sampleChecks() {
		for ci, comp := range seismic.Components {
			if err := c.checkSamples(rec.Station, comp, rec.Accel[ci]); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkDT validates the per-component sample intervals.
func (c QCConfig) checkDT(rec Record) error {
	for ci, comp := range seismic.Components {
		if rec.DT[ci] <= 0 {
			return qcErrf(rec.Station, ErrDtMismatch,
				"%s sample interval %g must be positive", comp, rec.DT[ci])
		}
	}
	for ci := 1; ci < len(rec.DT); ci++ {
		if rec.DT[ci] != rec.DT[0] {
			return qcErrf(rec.Station, ErrDtMismatch,
				"%s dt %g != %s dt %g",
				seismic.Components[ci], rec.DT[ci], seismic.Components[0], rec.DT[0])
		}
	}
	return nil
}

// checkHeader runs the header-only threshold checks (duration) from a
// chunked reader's header, before any sample has been read.
func (c QCConfig) checkHeader(station string, dt float64, npts int) error {
	if c.MinDuration > 0 {
		if dur := float64(npts-1) * dt; dur < c.MinDuration {
			return qcErrf(station, ErrDurationTooShort,
				"duration %.3fs < minimum %.3fs", dur, c.MinDuration)
		}
	}
	return nil
}

// checkSamples scans one component for clip rails and gaps.
func (c QCConfig) checkSamples(station string, comp seismic.Component, data []float64) error {
	rail := c.ClipLevel
	if c.ClipRun > 0 && rail == 0 {
		for _, v := range data {
			if a := abs(v); a > rail {
				rail = a
			}
		}
	}
	run := 1
	for i := 1; i <= len(data); i++ {
		if i < len(data) && data[i] == data[i-1] {
			run++
			continue
		}
		v := data[i-1]
		if c.ClipRun > 0 && run >= c.ClipRun && rail > 0 && abs(v) >= rail {
			return qcErrf(station, ErrClipped,
				"%s pegged at %g gal for %d samples", comp, v, run)
		}
		if c.GapRun > 0 && run >= c.GapRun {
			return qcErrf(station, ErrGap,
				"%s flat at %g gal for %d samples", comp, v, run)
		}
		run = 1
	}
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
