package pipeline

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accelproc/internal/obs"
)

// The run-journal unit suite: record framing, torn-tail parsing, resume
// replay through the public Run API, parameter-digest binding, quarantine
// replay, and the stale-scratch startup sweep.  The kill-9 crash matrix
// lives in crash_resume_test.go.

// journalOptions returns fresh options for one journaled pipelined run, each
// with its own observer so counters never bleed across runs.
func journalOptions() Options {
	opts := testOptions()
	opts.Journal = true
	opts.Observer = obs.New()
	return opts
}

// readJournal reads <dir>/.smrun/journal.
func readJournal(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, RunJournalDir, runJournalFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// dropFinish rewrites the journal without its trailing finish record,
// simulating a run that died after its last node but before the finish mark.
func dropFinish(t *testing.T, dir string) {
	t.Helper()
	data := readJournal(t, dir)
	if v := parseJournal(data); !v.finished {
		t.Fatal("journal of a completed run is not marked finished")
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	trimmed := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if v := parseJournal([]byte(trimmed)); v.finished || !v.started {
		t.Fatal("dropping the last line did not yield an unfinished journal")
	}
	if err := os.WriteFile(filepath.Join(dir, RunJournalDir, runJournalFile), []byte(trimmed), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestJournalLineRoundTrip(t *testing.T) {
	payloads := []string{
		"finish",
		startPayload(Pipelined, "abc123"),
		nodePayload(journalNode{pid: PFourier, station: "SS01", side: []byte("x y\nz")}),
		quarPayload(journalQuar{station: "SS02", stage: StageIV, pid: PDefaultFilter,
			op: "stage-in", kind: ErrKindTransient, attempts: 3, msg: "i/o timeout"}),
	}
	for _, p := range payloads {
		line := journalLine(p)
		got, ok := checkJournalLine(strings.TrimSuffix(string(line), "\n"))
		if !ok || got != p {
			t.Errorf("round trip of %q: got %q ok=%v", p, got, ok)
		}
		// Any single-byte corruption must be rejected by the checksum.
		corrupt := bytes.Replace(line, []byte(p[:1]), []byte{'~'}, 1)
		if _, ok := checkJournalLine(strings.TrimSuffix(string(corrupt), "\n")); ok {
			t.Errorf("corrupted line of %q passed the checksum", p)
		}
	}
}

// buildJournal assembles journal bytes from parts.
func buildJournal(payloads ...string) []byte {
	var buf bytes.Buffer
	buf.WriteString(journalMagic + "\n")
	for _, p := range payloads {
		buf.Write(journalLine(p))
	}
	return buf.Bytes()
}

func TestParseJournalKeepsLongestValidPrefix(t *testing.T) {
	full := buildJournal(
		startPayload(Pipelined, "d1"),
		nodePayload(journalNode{pid: PSeparateComponents, station: "SS01"}),
		nodePayload(journalNode{pid: PDefaultFilter, station: "SS01", side: []byte("mv")}),
		quarPayload(journalQuar{station: "SS02", stage: StageV, pid: PFourier,
			op: "stage-out", kind: ErrKindPermanent, attempts: 4, msg: "torn header"}),
		"finish",
	)
	v := parseJournal(full)
	if !v.started || !v.finished || len(v.nodes) != 2 || len(v.quars) != 1 ||
		v.variant != Pipelined || v.digest != "d1" {
		t.Fatalf("full parse: %+v", v)
	}
	if n := v.nodes[1]; n.pid != PDefaultFilter || n.station != "SS01" || string(n.side) != "mv" {
		t.Errorf("node record round trip: %+v", n)
	}
	if q := v.quars[0]; q.msg != "torn header" || q.kind != ErrKindPermanent || q.attempts != 4 {
		t.Errorf("quar record round trip: %+v", q)
	}

	// Every byte-level truncation parses to a valid prefix — never an error,
	// never more records than the full journal.
	for cut := 0; cut <= len(full); cut++ {
		tv := parseJournal(full[:cut])
		if len(tv.nodes) > 2 || len(tv.quars) > 1 {
			t.Fatalf("truncation at %d invented records: %+v", cut, tv)
		}
		// cut == len(full)-1 drops only the trailing newline; the finish
		// record itself is still whole.
		if tv.finished && cut < len(full)-1 {
			t.Fatalf("truncation at %d claims a finish it cannot contain", cut)
		}
	}

	// A torn tail (half a record line) keeps everything before it.
	torn := append(buildJournal(
		startPayload(Pipelined, "d1"),
		nodePayload(journalNode{pid: PFourier, station: "SS03"}),
	), []byte("00ab12")...)
	if tv := parseJournal(torn); !tv.started || len(tv.nodes) != 1 || tv.finished {
		t.Errorf("torn tail parse: %+v", tv)
	}

	// Garbage after the magic yields the empty-but-valid view; a missing
	// magic yields nothing at all.
	if tv := parseJournal([]byte(journalMagic + "\nnot a record\n")); tv.started {
		t.Errorf("garbage body parsed as started: %+v", tv)
	}
	if tv := parseJournal([]byte("random file\n")); tv.started || tv.finished {
		t.Errorf("non-journal parsed as journal: %+v", tv)
	}
	if tv := parseJournal(nil); tv.started {
		t.Errorf("empty input parsed as started: %+v", tv)
	}

	// A second start record resets the view to the newest run.
	restarted := buildJournal(
		startPayload(Pipelined, "old"),
		nodePayload(journalNode{pid: PFourier, station: "SS01"}),
		startPayload(Pipelined, "new"),
		nodePayload(journalNode{pid: PFourier, station: "SS02"}),
	)
	if tv := parseJournal(restarted); tv.digest != "new" || len(tv.nodes) != 1 || tv.nodes[0].station != "SS02" {
		t.Errorf("restart parse: %+v", tv)
	}
}

// TestResumeSkipsJournaledNodes is the pure-journal resume path: complete a
// journaled run, erase only its finish record (the state a crash after the
// last node leaves), and resume.  Every per-record node must be skipped from
// the journal — the action cache is cold, so the journal alone proves it.
func TestResumeSkipsJournaledNodes(t *testing.T) {
	for _, mode := range tempFolderModes {
		t.Run(mode.name, func(t *testing.T) { resumeSkipsJournaledNodes(t, mode.noTemp) })
	}
}

func resumeSkipsJournaledNodes(t *testing.T, noTemp bool) {
	options := func() Options {
		opts := journalOptions()
		opts.NoTempFolders = noTemp
		return opts
	}
	ctx := context.Background()
	ev := testEvent(t)
	const stations = 3
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}

	first := options()
	res, err := Run(ctx, dir, Pipelined, first)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resume.Resumed {
		t.Error("fresh journaled run claims to have resumed")
	}
	if v := parseJournal(readJournal(t, dir)); !v.finished || len(v.nodes) != stations*perRecordNodes {
		t.Fatalf("completed journal: finished=%v nodes=%d, want finished with %d",
			v.finished, len(v.nodes), stations*perRecordNodes)
	}
	ref := productHashes(t, dir)

	dropFinish(t, dir)
	resume := options()
	resume.Resume = true
	res, err = Run(ctx, dir, Pipelined, resume)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resume.Resumed {
		t.Fatal("unfinished journal was not adopted")
	}
	if res.Resume.NodesJournaled != stations*perRecordNodes {
		t.Errorf("NodesJournaled = %d, want %d", res.Resume.NodesJournaled, stations*perRecordNodes)
	}
	if res.Resume.NodesSkipped != stations*perRecordNodes {
		t.Errorf("NodesSkipped = %d, want %d", res.Resume.NodesSkipped, stations*perRecordNodes)
	}
	if got := recordNodesExecuted(resume); got != 0 {
		t.Errorf("resumed run executed %d record nodes, want 0", got)
	}
	if v := resume.Observer.Counter("journal_replays").Value(); v != 1 {
		t.Errorf("journal_replays = %v, want 1", v)
	}
	if v := int64(resume.Observer.Counter("nodes_skipped_resume").Value()); v != res.Resume.NodesSkipped {
		t.Errorf("nodes_skipped_resume = %d, Result says %d", v, res.Resume.NodesSkipped)
	}
	assertSameProducts(t, productHashes(t, dir), ref, "resumed")

	// The resumed run finished, so resuming again finds a finished journal
	// and re-executes everything.
	again := options()
	again.Resume = true
	res, err = Run(ctx, dir, Pipelined, again)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resume.Resumed {
		t.Error("finished journal was adopted")
	}
	if got := recordNodesExecuted(again); got != stations*perRecordNodes {
		t.Errorf("post-finish run executed %d record nodes, want %d", got, stations*perRecordNodes)
	}
	assertSameProducts(t, productHashes(t, dir), ref, "post-finish rerun")
}

// TestResumeIgnoresDigestMismatch reruns an unfinished journal under a
// different taper fraction: the journal's "done" claims are about another
// computation and must be ignored wholesale.
func TestResumeIgnoresDigestMismatch(t *testing.T) {
	ctx := context.Background()
	ev := testEvent(t)
	const stations = 3
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, dir, Pipelined, journalOptions()); err != nil {
		t.Fatal(err)
	}
	dropFinish(t, dir)

	resume := journalOptions()
	resume.Resume = true
	resume.TaperFraction = 0.10 // the journaled run used the 0.05 default
	res, err := Run(ctx, dir, Pipelined, resume)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resume.Resumed {
		t.Error("journal with a different params digest was adopted")
	}
	if got := recordNodesExecuted(resume); got != stations*perRecordNodes {
		t.Errorf("mismatched resume executed %d record nodes, want %d (everything)",
			got, stations*perRecordNodes)
	}
}

// TestResumeReplaysQuarantine hand-crafts a journal carrying a quarantine
// verdict: resume must condemn the station up front — outcome reported,
// retry budget unburned, records_quarantined counter untouched — and skip
// its subgraph.
func TestResumeReplaysQuarantine(t *testing.T) {
	ctx := context.Background()
	ev := testEvent(t)
	const stations = 3
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}

	resume := journalOptions()
	resume.Resume = true
	digest := journalParamsDigest(Pipelined, resume.withDefaults())
	jdir := filepath.Join(dir, RunJournalDir)
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	quar := journalQuar{station: "SS02", stage: StageIV, pid: PDefaultFilter,
		op: "stage-in", kind: ErrKindPermanent, attempts: 5, msg: "torn V1 component"}
	journal := buildJournal(startPayload(Pipelined, digest), quarPayload(quar))
	if err := os.WriteFile(filepath.Join(jdir, runJournalFile), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Run(ctx, dir, Pipelined, resume)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resume.Resumed || res.Resume.QuarantinesReplayed != 1 {
		t.Fatalf("replay stats: %+v", res.Resume)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0].Station != "SS02" {
		t.Fatalf("Quarantined = %+v, want the replayed SS02 verdict", res.Quarantined)
	}
	if o := res.Quarantined[0]; o.Attempts != 5 || o.Stage != StageIV {
		t.Errorf("replayed outcome lost detail: %+v", o)
	}
	if v := resume.Observer.Counter("records_quarantined").Value(); v != 0 {
		t.Errorf("records_quarantined = %v, want 0 (inherited verdict, not newly earned)", v)
	}
	// Only the two healthy stations' subgraphs execute.
	if got := recordNodesExecuted(resume); got != (stations-1)*perRecordNodes {
		t.Errorf("executed %d record nodes, want %d", got, (stations-1)*perRecordNodes)
	}
	if len(res.Stations) != stations-1 {
		t.Errorf("surviving stations %v, want %d of them", res.Stations, stations-1)
	}
}

// TestJournaledRunSweepsStaleScratch seeds crashed-run debris (an old tmp_*
// scratch dir and an old .tmp atomic-write leftover) next to a fresh tmp_*
// dir: the journaled startup sweep removes only the stale pair, a resume
// sweep owns the directory and removes whatever remains.
func TestJournaledRunSweepsStaleScratch(t *testing.T) {
	ctx := context.Background()
	ev := testEvent(t)
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}

	old := time.Now().Add(-2 * time.Hour)
	staleDir := filepath.Join(dir, "tmp_zz_99_000")
	if err := os.Mkdir(staleDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(staleDir, "SS01L.v2"), []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	staleTmp := filepath.Join(dir, "SS01.v2.123.tmp")
	if err := os.WriteFile(staleTmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{staleDir, staleTmp} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	freshDir := filepath.Join(dir, "tmp_zz_99_999")
	if err := os.Mkdir(freshDir, 0o755); err != nil {
		t.Fatal(err)
	}

	opts := journalOptions()
	res, err := Run(ctx, dir, Pipelined, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resume.ScratchSwept != 2 {
		t.Errorf("ScratchSwept = %d, want 2 (stale dir + stale temp file)", res.Resume.ScratchSwept)
	}
	if v := opts.Observer.Counter("stale_scratch_swept").Value(); v != 2 {
		t.Errorf("stale_scratch_swept = %v, want 2", v)
	}
	for _, p := range []string{staleDir, staleTmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale debris %s survived the sweep (err=%v)", p, err)
		}
	}
	if _, err := os.Stat(freshDir); err != nil {
		t.Errorf("fresh scratch dir was swept by the age-bounded pass: %v", err)
	}

	// Resume owns the work directory: the surviving fresh dir goes too.
	resume := journalOptions()
	resume.Resume = true
	res, err = Run(ctx, dir, Pipelined, resume)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resume.ScratchSwept != 1 {
		t.Errorf("resume ScratchSwept = %d, want 1 (the fresh dir)", res.Resume.ScratchSwept)
	}
	if _, err := os.Stat(freshDir); !os.IsNotExist(err) {
		t.Errorf("resume sweep left %s behind (err=%v)", freshDir, err)
	}
}

// FuzzJournalParse feeds hostile bytes to the journal parser: it must never
// panic, never report records without a start, and every parsed view must
// survive a format→reparse round trip.
func FuzzJournalParse(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(journalMagic + "\n"))
	f.Add(buildJournal(startPayload(Pipelined, "d"), "finish"))
	f.Add(buildJournal(
		startPayload(FullParallel, "deadbeef"),
		nodePayload(journalNode{pid: PFourier, station: "SS01", side: []byte{0, 1, 2}}),
		quarPayload(journalQuar{station: "SS02", stage: StageV, pid: PFourier,
			op: "stage-out", kind: ErrKindTransient, attempts: 2, msg: "x"}),
	))
	f.Add([]byte(journalMagic + "\n00ab12cd node 3 SS01"))
	f.Add([]byte("not a journal"))
	f.Fuzz(func(t *testing.T, data []byte) {
		v := parseJournal(data)
		if !v.started && (v.finished || len(v.nodes) != 0 || len(v.quars) != 0) {
			t.Fatalf("records without a start: %+v", v)
		}
		if !v.started {
			return
		}
		payloads := []string{startPayload(v.variant, v.digest)}
		for _, q := range v.quars {
			payloads = append(payloads, quarPayload(q))
		}
		for _, n := range v.nodes {
			payloads = append(payloads, nodePayload(n))
		}
		if v.finished {
			payloads = append(payloads, "finish")
		}
		rt := parseJournal(buildJournal(payloads...))
		if rt.started != v.started || rt.finished != v.finished || rt.digest != v.digest ||
			rt.variant != v.variant || len(rt.nodes) != len(v.nodes) || len(rt.quars) != len(v.quars) {
			t.Fatalf("format→reparse drift: %+v vs %+v", rt, v)
		}
	})
}
