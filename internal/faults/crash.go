package faults

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Crash-point injection: where the Injector simulates errors an operation
// can *return*, crash points simulate the one failure no error path covers —
// the process dying (kill -9, OOM, power loss) between two instructions.
// Durability-sensitive code brackets its commit points with Crash calls; a
// test harness re-execs the binary with CrashEnv armed, lets the child
// SIGKILL itself at the chosen point, and then verifies that recovery
// (journal replay, cache sweep, resume) restores a consistent state.
//
// Unarmed (the production case, and every process without the environment
// variable), Crash is a single atomic load — cheap enough to leave in the
// hot staging paths.

// CrashEnv is the environment variable arming crash-point injection in a
// process: its value is "<point>[:<nth>]", naming one of the crash points
// below and the 1-based hit at which the process kills itself (default 1).
// The kill is SIGKILL — no deferred functions, no flushes — so the process
// dies exactly as hard as the failure being modeled.
const CrashEnv = "ACCELPROC_CRASHPOINT"

// The instrumented crash points: immediately before and immediately after
// each durability boundary, so the crash matrix covers both "the record was
// lost" and "the record survived but nothing after it ran".
const (
	// CrashJournalAppend / CrashJournalAppended bracket one write-ahead run
	// journal append (internal/pipeline).
	CrashJournalAppend   = "journal-append"
	CrashJournalAppended = "journal-appended"
	// CrashManifestPut / CrashManifestPutDone bracket the manifest write
	// that commits one action-cache Put (internal/artifact); a crash between
	// blob writes and the manifest leaves sweepable orphan blobs.
	CrashManifestPut     = "manifest-put"
	CrashManifestPutDone = "manifest-put-done"
	// CrashStageMove / CrashStageMoved bracket one stage-move rename of the
	// temp-folder protocol (internal/pipeline).
	CrashStageMove  = "stage-move"
	CrashStageMoved = "stage-moved"
	// CrashStreamNode fires inside a streamed per-record node of the
	// streaming execution plane (internal/pipeline): once per component of
	// a streamed filter, after its upstream chunks have been consumed and its
	// corrected chunks sent downstream, but before its durable V2 commits —
	// so the crash matrix can prove resume re-executes streamed work instead
	// of trusting half-written artifacts.
	CrashStreamNode = "stream-node"
)

// CrashPoints lists every instrumented point, for harnesses that iterate
// the whole crash matrix.
var CrashPoints = []string{
	CrashJournalAppend, CrashJournalAppended,
	CrashManifestPut, CrashManifestPutDone,
	CrashStageMove, CrashStageMoved,
	CrashStreamNode,
}

var (
	crashOnce  sync.Once
	crashPoint atomic.Pointer[string]
	crashNth   int64
	crashHits  atomic.Int64
)

// armCrash parses CrashEnv once per process.
func armCrash() {
	v := os.Getenv(CrashEnv)
	if v == "" {
		return
	}
	point, nthStr, ok := strings.Cut(v, ":")
	nth := int64(1)
	if ok {
		n, err := strconv.ParseInt(nthStr, 10, 64)
		if err != nil || n < 1 {
			return // malformed arming disarms rather than killing at random
		}
		nth = n
	}
	if point == "" {
		return
	}
	crashNth = nth
	crashPoint.Store(&point)
}

// Crash kills the process with SIGKILL if crash-point injection is armed
// for the named point and this is its nth hit.  Unarmed it is a no-op.
func Crash(point string) {
	crashOnce.Do(armCrash)
	p := crashPoint.Load()
	if p == nil || *p != point {
		return
	}
	if crashHits.Add(1) == crashNth {
		killSelf()
	}
}
