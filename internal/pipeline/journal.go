package pipeline

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"accelproc/internal/artifact"
	"accelproc/internal/faults"
	"accelproc/internal/storage"
)

// This file is the write-ahead run journal: the crash-safety layer behind
// `smproc -resume`.  A journaled run appends one fsync'd record after every
// durability point — run start, each per-(record,process) dataflow node
// whose outputs have fully landed in the work directory, each quarantine
// verdict, and run finish — so a run killed mid-event leaves a precise
// prefix of its progress on disk.  Resume replays that prefix: quarantine
// verdicts are restored without re-burning retry budgets, journaled nodes
// whose outputs still pass validation are handed to the dataflow scheduler
// as already-complete, and only the unfinished subgraphs re-execute.
//
// Design rules, in order of importance:
//
//  1. The journal can only ever cost resume coverage, never correctness or
//     the run itself.  Appends are best-effort; a record that fails to
//     land means its node re-executes after a crash, nothing more.  The
//     dataflow digests and the action cache remain the source of truth for
//     *what* a node computes — the journal only says it already did.
//  2. A damaged journal is data, not an error.  Parsing keeps the longest
//     valid prefix and silently drops the torn tail a crash mid-append
//     leaves behind; any malformed line ends the replay there.
//  3. A journal binds to the exact computation that wrote it: the start
//     record carries a digest of (variant, every Options parameter the
//     kernels read), and resume ignores journals whose digest differs —
//     rerunning with a different taper fraction must redo everything.
//
// Record format: a magic first line, then one record per line,
// `%08x <payload>` where the hex prefix is the IEEE CRC-32 of the payload.
// Payloads are space-separated; free-text fields (side-channel bytes,
// error messages) ride as base64.  The format is self-describing and
// versioned through the magic string.

// RunJournalDir is the work-directory subfolder holding run-lifecycle
// state: the write-ahead journal of a crashed or in-flight run.
const RunJournalDir = ".smrun"

// runJournalFile is the journal's file name inside RunJournalDir.
const runJournalFile = "journal"

// journalMagic heads every journal; a file without it is not a journal.
// The trailing v1 versions the record format.
const journalMagic = "SMRUN JOURNAL v1"

// staleScratchMaxAge is how old a tmp_* scratch dir or .tmp temp file must
// be before the non-resume startup sweep removes it: old enough to be
// debris from a crashed run, not the live scratch of a concurrent one.
const staleScratchMaxAge = time.Hour

// ResumeStats reports what the journal contributed to a run.
type ResumeStats struct {
	// Resumed is true when a prior run's journal was adopted: it matched
	// this run's variant and parameters and had not recorded a finish.
	Resumed bool
	// NodesJournaled counts the journaled per-(record,process) nodes that
	// passed output validation and were handed to the scheduler as done.
	NodesJournaled int
	// NodesSkipped counts the nodes the scheduler actually skipped from
	// that set during execution (quarantined records' nodes skip earlier,
	// so this can be lower than NodesJournaled).
	NodesSkipped int64
	// QuarantinesReplayed counts quarantine verdicts restored from the
	// journal instead of re-discovered through fresh retry storms.
	QuarantinesReplayed int
	// ScratchSwept counts the stale tmp_* scratch dirs and .tmp temp files
	// the startup sweep removed.
	ScratchSwept int
}

// journalNode is one replayed node record: a per-(record,process) node
// whose outputs had fully landed when the journal acknowledged it, plus
// the side-channel payload its join consumes (max-values fragment or
// picked corners; nil for nodes without one).
type journalNode struct {
	pid     ProcessID
	station string
	side    []byte
}

// nodeKey indexes replayed nodes for the scheduler's skip check.
type nodeKey struct {
	pid ProcessID
	st  string
}

// journalQuar is one replayed quarantine verdict.
type journalQuar struct {
	station  string
	stage    StageID
	pid      ProcessID
	op       string
	kind     ErrorKind
	attempts int
	msg      string
}

// journalView is the parsed content of a journal: the longest valid prefix
// of its records.
type journalView struct {
	started  bool
	finished bool
	variant  Variant
	digest   string
	nodes    []journalNode
	quars    []journalQuar
}

// journalLine frames one payload as a checksummed record line.
func journalLine(payload string) []byte {
	return []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload))
}

// checkJournalLine validates one record line's checksum and returns its
// payload.
func checkJournalLine(line string) (string, bool) {
	crcHex, payload, ok := strings.Cut(line, " ")
	if !ok || len(crcHex) != 8 {
		return "", false
	}
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil {
		return "", false
	}
	if crc32.ChecksumIEEE([]byte(payload)) != uint32(want) {
		return "", false
	}
	return payload, true
}

// parseJournal reads a journal's longest valid prefix.  It never fails:
// a missing magic yields the empty view, and the first torn or malformed
// line — the tail a crash mid-append leaves — ends the replay with
// everything before it intact.  A fresh start record resets the view, so
// only the newest run's records count.
func parseJournal(data []byte) journalView {
	var v journalView
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || lines[0] != journalMagic {
		return v
	}
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		payload, ok := checkJournalLine(line)
		if !ok {
			return v
		}
		fields := strings.Fields(payload)
		if len(fields) == 0 {
			return v
		}
		switch fields[0] {
		case "start":
			if len(fields) != 3 {
				return v
			}
			vi, err := strconv.Atoi(fields[1])
			if err != nil {
				return v
			}
			v = journalView{started: true, variant: Variant(vi), digest: fields[2]}
		case "node":
			if !v.started || len(fields) != 4 {
				return v
			}
			pid, err := strconv.Atoi(fields[1])
			if err != nil || pid < 0 || pid >= NumProcesses {
				return v
			}
			var side []byte
			if fields[3] != "-" {
				if side, err = base64.StdEncoding.DecodeString(fields[3]); err != nil {
					return v
				}
			}
			v.nodes = append(v.nodes, journalNode{pid: ProcessID(pid), station: fields[2], side: side})
		case "quar":
			if !v.started || len(fields) != 8 {
				return v
			}
			stage, err1 := strconv.Atoi(fields[2])
			pid, err2 := strconv.Atoi(fields[3])
			kind, err3 := strconv.Atoi(fields[5])
			attempts, err4 := strconv.Atoi(fields[6])
			msg, err5 := base64.StdEncoding.DecodeString(fields[7])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil ||
				stage < 0 || stage > NumStages || pid < 0 || pid >= NumProcesses {
				return v
			}
			v.quars = append(v.quars, journalQuar{
				station: fields[1], stage: StageID(stage), pid: ProcessID(pid),
				op: fields[4], kind: ErrorKind(kind), attempts: attempts, msg: string(msg),
			})
		case "finish":
			if !v.started {
				return v
			}
			v.finished = true
		default:
			return v
		}
	}
	return v
}

// sideField encodes a side-channel payload for a node record; "-" stands
// for none (the empty base64 string would vanish under field splitting).
func sideField(side []byte) string {
	if len(side) == 0 {
		return "-"
	}
	return base64.StdEncoding.EncodeToString(side)
}

// startPayload / nodePayload / quarPayload format the record payloads.
func startPayload(variant Variant, digest string) string {
	return fmt.Sprintf("start %d %s", int(variant), digest)
}

func nodePayload(n journalNode) string {
	return fmt.Sprintf("node %d %s %s", int(n.pid), n.station, sideField(n.side))
}

func quarPayload(q journalQuar) string {
	return fmt.Sprintf("quar %s %d %d %s %d %d %s", q.station, int(q.stage), int(q.pid),
		q.op, int(q.kind), q.attempts, base64.StdEncoding.EncodeToString([]byte(q.msg)))
}

// journalParamsDigest fingerprints everything that determines a run's
// outputs beyond the input files: the variant and the Options parameters
// the kernels read.  A journal written under a different digest is ignored
// by resume — its "done" claims are about a different computation.
func journalParamsDigest(variant Variant, o Options) string {
	h := artifact.NewHasher("accelproc/journal/v2")
	h.Int(int64(variant))
	h.String("format:" + o.Format)
	h.String("qc:" + o.QC.String())
	h.String(fmt.Sprintf("response:%#v", o.Response))
	h.String(fmt.Sprintf("pick:%#v", o.Pick))
	h.Float(o.TaperFraction)
	if o.Instrument != nil {
		h.String(fmt.Sprintf("instrument:%#v", *o.Instrument))
	} else {
		h.String("instrument:none")
	}
	if o.NoTempFolders {
		h.Int(1)
	} else {
		h.Int(0)
	}
	// Streaming changes no output bytes, but a streamed run must only adopt
	// a streamed journal (and vice versa): the resume-skip validation rules
	// assume the same execution plane produced the journaled nodes.
	if o.Streaming {
		h.Int(1)
	} else {
		h.Int(0)
	}
	return h.Sum().String()
}

// runJournal appends records to the on-disk journal.  Every method is
// nil-safe (a nil journal means journaling is off) and best-effort: a
// failed append costs resume coverage for that record, never the run.
// Appends go through the undecorated workspace — the journal is recovery
// machinery, not part of the staged protocol chaos faults.
type runJournal struct {
	ws   storage.Workspace
	path string
	mu   sync.Mutex
}

// append frames and durably appends one record, bracketed by the crash
// points the kill-9 matrix drives: dying at CrashJournalAppend loses the
// record (the node re-executes on resume), dying at CrashJournalAppended
// proves the acknowledged record survived.
func (j *runJournal) append(payload string) {
	if j == nil {
		return
	}
	line := journalLine(payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	faults.Crash(faults.CrashJournalAppend)
	_ = j.ws.Append(j.path, line, 0o644)
	faults.Crash(faults.CrashJournalAppended)
}

func (j *runJournal) nodeDone(pid ProcessID, station string, side []byte) {
	j.append(nodePayload(journalNode{pid: pid, station: station, side: side}))
}

func (j *runJournal) quarantined(o RecordOutcome) {
	msg := ""
	if o.Err != nil {
		var serr *StageError
		if errors.As(o.Err, &serr) && serr.Err != nil {
			msg = serr.Err.Error()
		} else {
			msg = o.Err.Error()
		}
	}
	kind := ErrKindTransient
	var serr *StageError
	if errors.As(o.Err, &serr) {
		kind = serr.Kind
	}
	j.append(quarPayload(journalQuar{
		station: o.Station, stage: o.Stage, pid: o.Process,
		op: quarOpOf(o.Err), kind: kind, attempts: o.Attempts, msg: msg,
	}))
}

// quarOpOf extracts the failing op from a quarantine's StageError.
func quarOpOf(err error) string {
	var serr *StageError
	if errors.As(err, &serr) && serr.Op != "" {
		return serr.Op
	}
	return "unknown"
}

// finish marks the run complete.  The journal subtree is then materialized
// so the finish record reaches real disk even on the mem backend (whose
// Append otherwise holds the bytes in memory).
func (j *runJournal) finish() {
	if j == nil {
		return
	}
	j.append("finish")
	_ = j.ws.Materialize(filepath.Dir(j.path))
}

// initJournal sets up the run's journal under <dir>/.smrun: under -resume
// it first replays a surviving journal (quarantine verdicts, validated
// node records) and sweeps every leftover scratch, then in all journaled
// runs rewrites a fresh journal whose prefix carries the replayed records,
// and opens it for appends.  Best-effort throughout — a work directory
// where the journal cannot be written simply runs unjournaled.
func (s *state) initJournal(variant Variant) {
	if !s.opts.Journal {
		return
	}
	digest := journalParamsDigest(variant, s.opts)
	jdir := s.path(RunJournalDir)
	jpath := filepath.Join(jdir, runJournalFile)
	var view journalView
	if s.opts.Resume {
		if data, err := s.ws.ReadFile(jpath); err == nil {
			view = parseJournal(data)
		}
		if view.started && !view.finished && view.digest == digest {
			s.resumeStats.Resumed = true
			s.journalReplays.Add(1)
			for _, q := range view.quars {
				s.replayQuarantine(q)
			}
			s.resumeStats.QuarantinesReplayed = len(view.quars)
			s.resumeDone = make(map[nodeKey]journalNode, len(view.nodes))
			for _, n := range view.nodes {
				if s.resumableNode(n) {
					s.resumeDone[nodeKey{pid: n.pid, st: n.station}] = n
				}
			}
			s.resumeStats.NodesJournaled = len(s.resumeDone)
		} else {
			view = journalView{}
		}
		// A resume owns the work directory: every per-instance scratch dir
		// and temp file is debris of the crashed run, whatever its age.
		s.resumeStats.ScratchSwept = s.sweepStaleScratch(0)
	} else {
		// A fresh journaled run sweeps only debris old enough to be from a
		// crashed run, not the live scratch of a concurrent one.
		s.resumeStats.ScratchSwept = s.sweepStaleScratch(staleScratchMaxAge)
	}
	s.sweptCtr.Add(float64(s.resumeStats.ScratchSwept))

	if err := s.ws.MkdirAll(jdir, 0o755); err != nil {
		return
	}
	var buf bytes.Buffer
	buf.WriteString(journalMagic + "\n")
	buf.Write(journalLine(startPayload(variant, digest)))
	for _, q := range view.quars {
		buf.Write(journalLine(quarPayload(q)))
	}
	for _, n := range view.nodes {
		if _, ok := s.resumeDone[nodeKey{pid: n.pid, st: n.station}]; ok {
			buf.Write(journalLine(nodePayload(n)))
		}
	}
	if err := s.ws.WriteFile(jpath, buf.Bytes(), 0o644); err != nil {
		return
	}
	s.journal = &runJournal{ws: s.ws, path: jpath}
}

// resumableNode validates one journaled node against the work directory:
// every declared output file must still be present, and nodes whose join
// consumes a side-channel payload (sideCodecs) must have journaled one.  A
// node that fails validation simply re-executes — from its persistent
// inputs, which the protocol never destroys (stage-out always returns them).
func (s *state) resumableNode(n journalNode) bool {
	if _, ok := sideCodecs[n.pid]; ok && len(n.side) == 0 {
		return false
	}
	for _, name := range nodeOutputNames(n.pid, n.station) {
		info, err := s.ws.Stat(s.path(name))
		if err != nil || info.IsDir() {
			return false
		}
	}
	return true
}

// replayQuarantine restores one journaled quarantine verdict: the station
// is condemned before the graph is built and its outcome re-reported, but
// the records_quarantined counter is not re-bumped — the verdict is
// inherited, not newly earned, and ResumeStats reports the replay count.
func (s *state) replayQuarantine(q journalQuar) {
	serr := &StageError{Stage: q.stage, Process: q.pid, Record: q.station,
		Op: q.op, Kind: q.kind, Attempts: q.attempts, Err: errors.New(q.msg)}
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	if s.quarantinedSet[q.station] {
		return
	}
	s.quarantinedSet[q.station] = true
	s.outcomes = append(s.outcomes, RecordOutcome{
		Dir: s.dir, Station: q.station, Stage: q.stage, Process: q.pid,
		Attempts: q.attempts, Err: serr,
	})
}

// sweepStaleScratch removes the per-instance scratch dirs (tmp_*) and
// atomic-write temp files (*.tmp) a crashed run left at the work-directory
// root.  maxAge 0 sweeps unconditionally (resume owns the directory);
// otherwise only entries whose mtime is older than maxAge go, so a
// concurrent run's live scratch survives.  Failures count toward the
// scratch_cleanup_errors counter like every other cleanup problem.
func (s *state) sweepStaleScratch(maxAge time.Duration) int {
	entries, err := s.ws.List(s.dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-maxAge)
	swept := 0
	for _, e := range entries {
		name := e.Name()
		isScratchDir := e.IsDir() && strings.HasPrefix(name, "tmp_")
		isTempFile := !e.IsDir() && strings.HasSuffix(name, ".tmp")
		if !isScratchDir && !isTempFile {
			continue
		}
		if maxAge > 0 {
			info, err := e.Info()
			if err != nil || info.ModTime().After(cutoff) {
				continue
			}
		}
		path := filepath.Join(s.dir, name)
		if isScratchDir {
			s.arts.InvalidateDir(path)
			if err := s.ws.RemoveAll(path); err != nil {
				s.cleanupErr.Add(1)
				continue
			}
		} else if err := s.ws.Remove(path); err != nil {
			s.cleanupErr.Add(1)
			continue
		}
		swept++
	}
	return swept
}

// resumeSnapshot folds the live skip counter into the replay stats for the
// run's Result.
func (s *state) resumeSnapshot() ResumeStats {
	rs := s.resumeStats
	rs.NodesSkipped = s.nodesSkipped.Load()
	return rs
}
