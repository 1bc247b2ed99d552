package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"accelproc/internal/faults"
	"accelproc/internal/ingest"
	"accelproc/internal/smformat"
)

// ErrorKind classifies a staging-protocol failure for the retry engine: it
// decides whether an operation is retried, quarantines its record, or
// aborts the run.
type ErrorKind int

const (
	// ErrKindTransient failures are expected to succeed on retry.
	ErrKindTransient ErrorKind = iota
	// ErrKindPermanent failures cannot be fixed by retrying; the record is
	// quarantined immediately.
	ErrKindPermanent
	// ErrKindTimeout marks an operation that exceeded RetryPolicy.OpTimeout;
	// retried like a transient failure.
	ErrKindTimeout
	// ErrKindCanceled marks run-context cancellation; never retried, never
	// quarantined — the whole run is aborting.
	ErrKindCanceled
)

// String returns the lower-case kind name.
func (k ErrorKind) String() string {
	switch k {
	case ErrKindTransient:
		return "transient"
	case ErrKindPermanent:
		return "permanent"
	case ErrKindTimeout:
		return "timeout"
	case ErrKindCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("ErrorKind(%d)", int(k))
	}
}

// errOpTimeout is the sentinel wrapped into operations that exceed the
// retry policy's per-op timeout.
var errOpTimeout = errors.New("pipeline: operation timed out")

// StageError is the typed failure of one record inside one staged process:
// where it happened (stage, process, record, op), how it classifies, and
// how many attempts the retry policy spent before giving up.  It is the
// error quarantined records carry in RecordOutcome and the error RunBatch
// joins into its Report.
//
// StageError supports errors.Is matching with zero fields as wildcards:
//
//	errors.Is(err, &StageError{Record: "SS02"})            // any failure of SS02
//	errors.Is(err, &StageError{Stage: StageVIII})          // any stage-VIII failure
//	errors.Is(err, &StageError{Kind: ErrKindPermanent})    // by kind — note the
//
// Kind wildcard is ErrKindTransient (the zero value), so kind-matching a
// transient requires the other fields to pin the target.
type StageError struct {
	Stage    StageID
	Process  ProcessID
	Record   string // station code
	Op       string // "mkdir", "read", "write", "move", "remove", "exec", ...
	Kind     ErrorKind
	Attempts int
	Err      error
}

func (e *StageError) Error() string {
	return fmt.Sprintf("pipeline: stage %s process #%d record %s: %s failed (%s, %d attempts): %v",
		e.Stage, int(e.Process), e.Record, e.Op, e.Kind, e.Attempts, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// Is matches another *StageError treating the target's zero fields as
// wildcards, so errors.Is can select failures by any subset of
// (stage, process, record, op, kind).  Process zero (PInitFlags) acts as a
// wildcard; that is safe because StageErrors only arise in per-record
// processes — the ingest decode (#3) and the temp-folder stages (#4, #7,
// and #13).
func (e *StageError) Is(target error) bool {
	t, ok := target.(*StageError)
	if !ok {
		return false
	}
	return (t.Stage == 0 || t.Stage == e.Stage) &&
		(t.Process == 0 || t.Process == e.Process) &&
		(t.Record == "" || t.Record == e.Record) &&
		(t.Op == "" || t.Op == e.Op) &&
		(t.Kind == 0 || t.Kind == e.Kind)
}

// ErrUnsupported is matched (errors.Is) by every option combination
// Options.Validate rejects; the error's message names the conflicting pair.
var ErrUnsupported = errors.New("pipeline: unsupported option combination")

// Validate rejects, before any work starts, a combination of options a run
// of the given variant could not honour.  Run, RunBatch and RunFleet all
// call it first.
func (o Options) Validate(variant Variant) error {
	var pair, why string
	persistent := o.Cache.Mode == CachePersistent
	switch {
	case o.Streaming && variant != Pipelined:
		pair, why = "Streaming with variant "+variant.String(), "streaming requires the pipelined variant"
	case o.Streaming && o.Chaos != nil:
		// Chaos interposes on the temp-folder protocol, which the streaming
		// plane bypasses entirely: combined, chaos would test nothing.
		pair, why = "Streaming with Chaos", "streaming mode cannot be combined with chaos fault injection"
	case o.Streaming && persistent:
		// Streamed outputs are written incrementally, never read back whole
		// for a Put, and restores would race the stream consumers.
		pair, why = "Streaming with CachePersistent", "streaming mode cannot be combined with the persistent action cache"
	case persistent && variant != Pipelined:
		// The action cache keys Pipelined's per-(process, record) nodes;
		// a staged plan has none to look up.
		pair, why = "CachePersistent with variant "+variant.String(), "the persistent action cache requires the pipelined variant"
	case persistent && o.Chaos != nil:
		// Fault injection must exercise the real staging protocol, not
		// cached restores of it.
		pair, why = "CachePersistent with Chaos", "the persistent action cache cannot be combined with chaos fault injection"
	default:
		return nil
	}
	return fmt.Errorf("%w: %s: %s", ErrUnsupported, pair, why)
}

// classify maps an operation error to its retry-engine kind.  Unknown
// errors default to transient — the optimistic posture (retry, then
// quarantine at attempt exhaustion) degrades one record instead of an
// event when wrong.
func classify(err error) ErrorKind {
	switch {
	case err == nil:
		return ErrKindTransient
	case errors.Is(err, errOpTimeout):
		return ErrKindTimeout
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return ErrKindCanceled
	case errors.Is(err, faults.ErrPermanent) || errors.Is(err, fs.ErrNotExist):
		return ErrKindPermanent
	case errors.Is(err, ingest.ErrReject) || errors.Is(err, smformat.ErrFormat):
		// QC-gate rejections and structurally damaged record files: the
		// bytes will not improve on retry, quarantine with the typed reason.
		return ErrKindPermanent
	default:
		return ErrKindTransient
	}
}
