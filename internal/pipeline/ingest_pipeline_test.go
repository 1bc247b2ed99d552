package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accelproc/internal/ingest"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
	"accelproc/internal/storage"
	"accelproc/internal/synth"
)

// emitDir lays the event down in dir encoded per opt (format cycle, defect
// injection) and returns dir.
func emitDir(t *testing.T, ev seismic.Event, name string, opt synth.EmitOptions) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := synth.EmitEvent(dir, ev, opt); err != nil {
		t.Fatal(err)
	}
	return dir
}

// ingestProductHashes is productHashes for mixed-format work directories: it
// skips input record files of every registered format (identified by magic)
// and the v1list metadata, whose entries name the format-specific input
// files and therefore legitimately differ between encodings of one event.
func ingestProductHashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	hashes := productHashes(t, dir)
	for name := range hashes {
		if name == smformat.V1ListFile {
			delete(hashes, name)
			continue
		}
		prefix, err := sniffHead(storage.Disk(), filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ingest.SniffAny(prefix); ok {
			delete(hashes, name)
		}
	}
	return hashes
}

// TestFormatsProduceByteIdenticalProducts is the cross-format identity
// matrix: the same event encoded in every registered format — and in a
// per-station mix of all of them — must yield byte-identical products under
// every variant.  Full float64 round-trips in every encoder make this exact,
// not approximate.
func TestFormatsProduceByteIdenticalProducts(t *testing.T) {
	ev := testEvent(t)
	encodings := append(ingest.Names(), "mix")
	var ref map[string]string
	var refName string
	for _, enc := range encodings {
		for _, v := range Variants {
			name := fmt.Sprintf("%s/%s", enc, v)
			dir := emitDir(t, ev, strings.ReplaceAll(name, "/", "_"), synth.EmitOptions{Format: enc})
			if _, err := Run(context.Background(), dir, v, testOptions()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := ingestProductHashes(t, dir)
			if ref == nil {
				if len(got) == 0 {
					t.Fatalf("%s: no products", name)
				}
				ref, refName = got, name
				continue
			}
			if len(got) != len(ref) {
				t.Errorf("%s: %d products, want %d (as %s)", name, len(got), len(ref), refName)
			}
			for file, h := range ref {
				if got[file] != h {
					t.Errorf("%s: product %s differs from %s", name, file, refName)
				}
			}
		}
	}
}

// TestFormatsByteIdenticalOnMemBackend re-checks the identity matrix on the
// in-memory storage plane: decode-plane format handling must not depend on
// the backend.
func TestFormatsByteIdenticalOnMemBackend(t *testing.T) {
	ev := testEvent(t)
	var ref map[string]string
	for _, enc := range append(ingest.Names(), "mix") {
		dir := emitDir(t, ev, enc, synth.EmitOptions{Format: enc})
		opts := testOptions()
		opts.Storage = storage.BackendMem
		if _, err := Run(context.Background(), dir, FullParallel, opts); err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		got := ingestProductHashes(t, dir)
		if ref == nil {
			if len(got) == 0 {
				t.Fatalf("%s: no products", enc)
			}
			ref = got
			continue
		}
		for file, h := range ref {
			if got[file] != h {
				t.Errorf("%s (mem backend): product %s differs", enc, file)
			}
		}
	}
}

// TestFormatOverride pins -format behaviour: a valid override decodes, an
// unknown registry key fails the run up front, and an override that does not
// match the bytes quarantines the record instead of poisoning the event.
func TestFormatOverride(t *testing.T) {
	ev := testEvent(t)

	dir := emitDir(t, ev, "v1a", synth.EmitOptions{Format: "v1a"})
	opts := testOptions()
	opts.Format = "v1a"
	res, err := Run(context.Background(), dir, FullParallel, opts)
	if err != nil {
		t.Fatalf("forced v1a: %v", err)
	}
	if len(res.Stations) != len(ev.Records) || len(res.Quarantined) != 0 {
		t.Fatalf("forced v1a: stations %v quarantined %v", res.Stations, res.Quarantined)
	}

	opts.Format = "seed-noise"
	if _, err := Run(context.Background(), dir, FullParallel, opts); err == nil ||
		!strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("unknown -format accepted: %v", err)
	}

	// Forcing csv onto v1a bytes: the magic does not sniff as csv and the
	// extension is wrong, so nothing is gathered at all.
	opts.Format = "csv"
	if _, err := Run(context.Background(), dir, FullParallel, opts); err == nil ||
		!strings.Contains(err.Error(), "no input record files") {
		t.Fatalf("csv override over v1a inputs: %v", err)
	}
}

// defectDir prepares a work directory with one defective record (station 0,
// encoded as V1A so every defect class is representable) among healthy
// native inputs.
func defectDir(t *testing.T, ev seismic.Event, kind string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	st := ev.Records[0].Station
	if err := os.Remove(filepath.Join(dir, smformat.V1FileName(st))); err != nil {
		t.Fatal(err)
	}
	irec, err := synth.Corrupt(ingest.FromV1(smformat.FromRecord(ev.Records[0])), kind, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := ingest.ByName("v1a")
	if err != nil {
		t.Fatal(err)
	}
	if err := ingest.WriteFile(storage.Disk(), filepath.Join(dir, st+f.Extension()), f, irec); err != nil {
		t.Fatal(err)
	}
	return dir
}

// stripFinish truncates the run journal's trailing record (the finish
// acknowledgment), turning a completed run's journal into a crashed-looking
// one that -resume will adopt.
func stripFinish(t *testing.T, dir string) {
	t.Helper()
	p := filepath.Join(dir, RunJournalDir, runJournalFile)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.TrimRight(data, "\n")
	i := bytes.LastIndexByte(trimmed, '\n')
	if i < 0 {
		t.Fatalf("journal %s has no record to strip", p)
	}
	if err := os.WriteFile(p, data[:i+1], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQCGateQuarantinesTypedReasons drives every QC defect class through
// the full pipeline — materialized and streamed — and asserts each lands in
// quarantine with exactly its taxonomy reason, then proves the verdict (and
// its structured reason text) survives a -resume replay.
func TestQCGateQuarantinesTypedReasons(t *testing.T) {
	defects := []struct {
		kind     string // synth.Corrupt defect
		check    string // ingest.CheckName of the expected reason
		sentinel error
	}{
		{"clip", "clip", ingest.ErrClipped},
		{"gap", "gap", ingest.ErrGap},
		{"short", "duration", ingest.ErrDurationTooShort},
		{"dt", "dt", ingest.ErrDtMismatch},
		{"length", "length", ingest.ErrComponentLengthMismatch},
		{"missing", "missing", ingest.ErrMissingComponent},
	}
	ev := testEvent(t)
	for _, d := range defects {
		for _, streaming := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stream=%v", d.kind, streaming), func(t *testing.T) {
				dir := defectDir(t, ev, d.kind)
				opts := testOptions()
				opts.QC = ingest.DefaultQC()
				opts.Streaming = streaming
				opts.Journal = true
				res, err := Run(context.Background(), dir, Pipelined, opts)
				if err != nil {
					t.Fatalf("run failed instead of degrading: %v", err)
				}
				if len(res.Quarantined) != 1 {
					t.Fatalf("%d records quarantined, want 1 (%+v)", len(res.Quarantined), res.Quarantined)
				}
				q := res.Quarantined[0]
				if q.Station != ev.Records[0].Station || q.Process != PSeparateComponents {
					t.Errorf("quarantined %s at process #%d, want %s at #%d",
						q.Station, q.Process, ev.Records[0].Station, PSeparateComponents)
				}
				if !errors.Is(q.Err, d.sentinel) || !errors.Is(q.Err, ingest.ErrReject) {
					t.Errorf("reason %v does not wrap %v + ErrReject", q.Err, d.sentinel)
				}
				if got := ingest.CheckName(q.Err); got != d.check {
					t.Errorf("CheckName = %q, want %q", got, d.check)
				}
				if want := len(ev.Records) - 1; len(res.Stations) != want {
					t.Errorf("%d survivors, want %d", len(res.Stations), want)
				}

				// Resume replay: make the journal look crashed and re-run.
				// The verdict must be inherited — not re-earned — with its
				// structured reason text intact.
				stripFinish(t, dir)
				opts.Resume = true
				res, err = Run(context.Background(), dir, Pipelined, opts)
				if err != nil {
					t.Fatalf("resume failed: %v", err)
				}
				if !res.Resume.Resumed || res.Resume.QuarantinesReplayed != 1 {
					t.Fatalf("resume stats %+v, want 1 replayed verdict", res.Resume)
				}
				if len(res.Quarantined) != 1 {
					t.Fatalf("after resume: %d quarantined, want 1", len(res.Quarantined))
				}
				q = res.Quarantined[0]
				if q.Station != ev.Records[0].Station {
					t.Errorf("after resume: quarantined %s, want %s", q.Station, ev.Records[0].Station)
				}
				if !strings.Contains(q.Err.Error(), "qc/"+d.check) {
					t.Errorf("replayed reason %q lost its qc/%s tag", q.Err, d.check)
				}
			})
		}
	}
}

// TestMetadataListsDoNotDependOnSchedule runs one event with a QC-rejected
// record through every variant and the fleet scheduler.  The metadata files
// must be byte-identical whether the record's verdict landed before the
// list-writing processes ran (the sequential chain decodes first) or after
// (the reordered schedule writes the lists in stage II).
func TestMetadataListsDoNotDependOnSchedule(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	opts.QC = ingest.DefaultQC()
	var ref map[string]string
	check := func(name, dir string, res Result) {
		t.Helper()
		if len(res.Quarantined) != 1 {
			t.Fatalf("%s: quarantined %+v, want the one rejected record", name, res.Quarantined)
		}
		got := map[string]string{}
		for file, h := range productHashes(t, dir) {
			if strings.HasSuffix(file, ".meta") {
				got[file] = h
			}
		}
		if ref == nil {
			ref = got
			return
		}
		if len(got) != len(ref) {
			t.Errorf("%s: %d metadata files, want %d", name, len(got), len(ref))
		}
		for file, h := range ref {
			if got[file] != h {
				t.Errorf("%s: metadata %s differs from %v", name, file, Variants[0])
			}
		}
	}
	for _, v := range Variants {
		dir := defectDir(t, ev, "clip")
		res, err := Run(context.Background(), dir, v, opts)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		check(v.String(), dir, res)
	}
	dir := defectDir(t, ev, "clip")
	results, err := RunFleet(context.Background(), []string{dir}, FleetOptions{Options: opts})
	if err != nil && !errors.Is(err, ingest.ErrReject) {
		t.Fatalf("fleet: %v", err)
	}
	check("fleet", dir, results[0].Result)
}

// TestAzimuthRotationMatchesNativeProducts: a record encoded in a rotated
// sensor frame with its azimuth declared must produce the same products as
// the same motion encoded north-aligned — rotation is applied at decode,
// before anything downstream sees the samples.
func TestAzimuthRotationMatchesNativeProducts(t *testing.T) {
	ev := testEvent(t)

	refDir := emitDir(t, ev, "aligned", synth.EmitOptions{})
	if _, err := Run(context.Background(), refDir, FullParallel, testOptions()); err != nil {
		t.Fatal(err)
	}
	ref := ingestProductHashes(t, refDir)

	dir := filepath.Join(t.TempDir(), "rotated")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := ingest.ByName("v1a")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, rec := range ev.Records {
		irec, err := synth.Corrupt(ingest.FromV1(smformat.FromRecord(rec)), "azimuth", rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := ingest.WriteFile(storage.Disk(), filepath.Join(dir, rec.Station+f.Extension()), f, irec); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(context.Background(), dir, FullParallel, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("rotated records quarantined: %+v", res.Quarantined)
	}
	// Rotate-then-unrotate is floating point, so byte-identity with the
	// aligned reference is not promised (that guarantee is azimuth-0 only);
	// what must hold is the full product set materializing, plus numerical
	// agreement of the decoded motion.
	got := ingestProductHashes(t, dir)
	if len(got) != len(ref) {
		t.Fatalf("%d products, want %d", len(got), len(ref))
	}
	for file := range ref {
		if _, ok := got[file]; !ok {
			t.Errorf("rotated run missing product %s", file)
		}
	}
	rec := ev.Records[0]
	v1, _, err := ingest.ReadRecord(storage.Disk(),
		filepath.Join(dir, rec.Station+f.Extension()), nil, ingest.DefaultQC())
	if err != nil {
		t.Fatal(err)
	}
	for ci := range v1.Accel {
		want := rec.Accel[ci].Data
		if len(v1.Accel[ci]) != len(want) {
			t.Fatalf("component %d: %d samples, want %d", ci, len(v1.Accel[ci]), len(want))
		}
		for i := range want {
			if diff := v1.Accel[ci][i] - want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("component %d sample %d: rotated-back %g vs original %g", ci, i, v1.Accel[ci][i], want[i])
			}
		}
	}
}
