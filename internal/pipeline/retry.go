package pipeline

import (
	"errors"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// QuarantineDir is the work-directory subfolder that receives the scratch
// folders of quarantined records, preserved for post-mortem inspection.
const QuarantineDir = "quarantine"

// RetryPolicy governs how the staging protocol reacts to failing file
// operations and simulated-binary executions: how often an operation is
// retried, how long to back off between attempts, and how long one attempt
// may run.  The zero value selects the defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts bounds the tries per operation (first try included);
	// zero selects 3.  After the last attempt the record is quarantined.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; zero selects 500µs.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff; zero selects 50ms.
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor; zero selects 2.
	Multiplier float64
	// JitterSeed drives the deterministic backoff jitter, so two runs with
	// the same seed sleep the same schedule.
	JitterSeed int64
	// OpTimeout bounds one attempt of one operation via the run context;
	// zero disables the per-op timeout.  Timed-out attempts classify as
	// ErrKindTimeout and are retried.
	OpTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 500 * time.Microsecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 50 * time.Millisecond
	}
	if p.Multiplier == 0 {
		p.Multiplier = 2
	}
	return p
}

// Backoff returns the delay before retry number attempt (1-based) of the
// operation identified by key: exponential growth from BaseDelay capped at
// MaxDelay, scaled by a deterministic jitter factor in [0.5, 1.5) hashed
// from (JitterSeed, key, attempt).  Jitter decorrelates the retry storms of
// concurrently failing records without sacrificing reproducibility.
func (p RetryPolicy) Backoff(attempt int, key string) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(p.JitterSeed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(key))
	b[0] = byte(attempt)
	h.Write(b[:1])
	u := float64(h.Sum64()>>11) / float64(1<<53)
	d *= 0.5 + u
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	return time.Duration(d)
}

// RecordOutcome describes one quarantined record: which record failed,
// where, after how many attempts, and where its scratch folder was
// preserved.
type RecordOutcome struct {
	Dir      string // event work directory
	Station  string
	Stage    StageID
	Process  ProcessID
	Attempts int
	Scratch  string // preserved scratch folder under <dir>/quarantine, "" if none existed
	Err      error  // the *StageError that condemned the record
}

// recordSite locates one record inside the staging protocol, for error
// attribution and quarantine.
type recordSite struct {
	stage   StageID
	proc    ProcessID
	tag     string // injector stage tag: "def", "fou", "cor"
	station string
	scratch string // the record's scratch folder, "" outside the protocol
}

// retryOp runs one staging operation for rc under the retry policy:
// transient and timeout failures are retried with backoff up to MaxAttempts,
// permanent failures and attempt exhaustion return a *StageError, and
// cancellation propagates unwrapped so the run aborts.
func (s *state) retryOp(rc recordSite, op string, fn func() error) error {
	for attempt := 1; ; attempt++ {
		err := s.attemptOp(fn)
		if err == nil {
			return nil
		}
		kind := classify(err)
		if kind == ErrKindCanceled {
			return err
		}
		if kind == ErrKindPermanent || attempt >= s.retry.MaxAttempts {
			return &StageError{Stage: rc.stage, Process: rc.proc, Record: rc.station,
				Op: op, Kind: kind, Attempts: attempt, Err: err}
		}
		s.nRetries.Add(1)
		s.retries.Add(1)
		if err := s.sleep(s.retry.Backoff(attempt, rc.station+"/"+op)); err != nil {
			return err
		}
	}
}

// attemptOp runs fn, bounded by the retry policy's per-op timeout when one
// is set.  The timed-out goroutine is abandoned (its eventual result is
// discarded through the buffered channel); callers retry the operation on a
// fresh attempt.
func (s *state) attemptOp(fn func() error) error {
	to := s.retry.OpTimeout
	if to <= 0 {
		return fn()
	}
	done := make(chan error, 1)
	go func() { done <- fn() }()
	t := time.NewTimer(to)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return errOpTimeout
	case <-s.ctx.Done():
		return s.cancelled()
	}
}

// sleep blocks for d or until the run context is cancelled, returning the
// cancellation cause in the latter case.
func (s *state) sleep(d time.Duration) error {
	if d <= 0 {
		return s.cancelled()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-s.ctx.Done():
		return s.cancelled()
	}
}

// degraded converts a record-level *StageError into graceful degradation:
// the record is quarantined and the protocol continues with the survivors
// (nil is returned).  Cancellation and non-record failures propagate.
func (s *state) degraded(rc recordSite, err error) error {
	if err == nil {
		return nil
	}
	var serr *StageError
	if errors.As(err, &serr) && classify(err) != ErrKindCanceled {
		s.quarantine(rc, serr)
		return nil
	}
	return err
}

// quarantine condemns rc's record: its scratch folder (if any) is preserved
// under <dir>/quarantine/, the station is excluded from every subsequent
// stations() listing, and the outcome is recorded for the run's Result.
// The quarantine moves use the plain filesystem, never the fault-injected
// one — the degradation path must stay dependable under chaos.
func (s *state) quarantine(rc recordSite, serr *StageError) {
	preserved := ""
	if rc.scratch != "" {
		// Whatever cache entries the record accumulated under its scratch
		// folder are about to be renamed into quarantine (or deleted); drop
		// them before the paths go stale.
		s.arts.InvalidateDir(rc.scratch)
		if _, err := os.Stat(rc.scratch); err == nil {
			qdir := s.path(QuarantineDir)
			if err := os.MkdirAll(qdir, 0o755); err == nil {
				// Flush any in-memory contents of the scratch folder to real
				// disk first: quarantine preserves physical evidence for the
				// operator, whatever the storage backend.
				s.ws.Materialize(rc.scratch)
				dest := filepath.Join(qdir, filepath.Base(rc.scratch))
				if err := os.Rename(rc.scratch, dest); err == nil {
					preserved = dest
				}
			}
			if preserved == "" {
				// Could not preserve the scratch folder; remove it rather
				// than leak it into the work directory.
				s.ws.RemoveAll(rc.scratch)
			}
		}
	}
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	if s.quarantinedSet[rc.station] {
		return
	}
	s.quarantinedSet[rc.station] = true
	outcome := RecordOutcome{
		Dir:      s.dir,
		Station:  rc.station,
		Stage:    rc.stage,
		Process:  rc.proc,
		Attempts: serr.Attempts,
		Scratch:  preserved,
		Err:      serr,
	}
	s.outcomes = append(s.outcomes, outcome)
	s.quarCount.Add(1)
	// Journal the verdict: a resumed run inherits it instead of re-burning
	// the retry budget on a record already known bad.
	s.journal.quarantined(outcome)
}

// quarantineProducts moves every per-record product a quarantined record
// published before its verdict out of the work directory into
// quarantine/<station>/, so no schedule leaves a condemned record's products
// among the event's.  The moves go through the undecorated workspace, like
// quarantine's, and land before Materialize flushes the event to disk.
func (s *state) quarantineProducts() error {
	for _, q := range s.quarantinedOutcomes() {
		qdir := filepath.Join(s.path(QuarantineDir), q.Station)
		for _, name := range recordProducts(q.Station) {
			src := s.path(name)
			if _, err := s.ws.Stat(src); errors.Is(err, fs.ErrNotExist) {
				continue
			} else if err != nil {
				return err
			}
			if err := s.ws.MkdirAll(qdir, 0o755); err != nil {
				return err
			}
			s.arts.Invalidate(src)
			if err := s.ws.Rename(src, filepath.Join(qdir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// recordProducts lists the work-directory files the per-record processes
// write for one station, each once.
func recordProducts(st string) []string {
	seen := map[string]bool{}
	var names []string
	for _, p := range Processes {
		for _, name := range nodeOutputNames(p.ID, st) {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	return names
}

// isQuarantined reports whether the station has been condemned this run.
func (s *state) isQuarantined(station string) bool {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	return s.quarantinedSet[station]
}

// quarantinedOutcomes snapshots the quarantine record, sorted by station
// for deterministic reporting.
func (s *state) quarantinedOutcomes() []RecordOutcome {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	out := make([]RecordOutcome, len(s.outcomes))
	copy(out, s.outcomes)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Station < out[j-1].Station; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
