package pipeline

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"accelproc/internal/dsp"
	"accelproc/internal/faults"
	"accelproc/internal/obs"
	"accelproc/internal/storage"
	"accelproc/internal/stream"
	"accelproc/internal/synth"
)

// The streaming execution plane's correctness contract: Options.Streaming
// changes how bytes move (chunk streams instead of whole decoded
// artifacts), never what bytes land.  These tests pin the byte-identity
// matrix Streaming=on/off × fs/mem × instrument correction on/off, the
// flat-memory claim the plane exists for, and the kill-9 crash case proving
// resume re-executes a mid-stream node.

// streamBudgetBound is the ablation acceptance bound: resident storage under
// streaming stays within twice the default chunk budget regardless of NPTS.
var streamBudgetBound = int64(2 * stream.BudgetBytes(stream.DefaultChunkLen, stream.DefaultWindow))

func TestStreamingProducesIdenticalOutputs(t *testing.T) {
	ev := testEvent(t)
	instruments := []struct {
		name string
		inst *dsp.Instrument
	}{
		{"instrument-off", nil},
		{"instrument-on", &dsp.Instrument{F0: 25, Damping: 0.7}},
	}
	refs := make(map[string]map[string]string)
	for _, in := range instruments {
		opts := testOptions()
		opts.Instrument = in.inst
		dirRef, _ := runVariant(t, ev, Pipelined, opts)
		refs[in.name] = productHashes(t, dirRef)
		if len(refs[in.name]) == 0 {
			t.Fatalf("%s: no products found", in.name)
		}
	}
	for _, backend := range []storage.Backend{storage.BackendFS, storage.BackendMem} {
		backend := backend
		t.Run(string(backend), func(t *testing.T) {
			for _, in := range instruments {
				in := in
				t.Run(in.name, func(t *testing.T) {
					opts := testOptions()
					opts.Streaming = true
					opts.Storage = backend
					opts.Instrument = in.inst
					dir, res := runVariant(t, ev, Pipelined, opts)
					assertSameProducts(t, productHashes(t, dir), refs[in.name], "streaming/"+string(backend)+"/"+in.name)
					if backend == storage.BackendMem && res.StorageBytesPeak > streamBudgetBound {
						t.Errorf("StorageBytesPeak = %d, want <= %d under streaming", res.StorageBytesPeak, streamBudgetBound)
					}
				})
			}
		})
	}
}

// TestStreamingFlatMemoryAblation is the plane's reason to exist: on the mem
// backend, growing the event's sample count by 25x leaves resident storage
// flat and under the chunk-budget bound, because every NPTS-scaled product
// flows through write-through incremental writers.  (The full 56K-to-1M-point
// sweep lives in the stream-bench memory ablation; this is its fast proxy.)
func TestStreamingFlatMemoryAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("processes a multi-hundred-kilopoint event")
	}
	peaks := make(map[string]int64)
	for _, tc := range []struct {
		name   string
		points int
	}{
		{"small", 8000},
		{"large", 200000},
	} {
		ev, err := synth.Event(synth.EventSpec{
			Name: "ablate", Files: 2, TotalPoints: tc.points, Magnitude: 5.0, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := testOptions()
		opts.Streaming = true
		opts.Storage = storage.BackendMem
		_, res := runVariant(t, ev, Pipelined, opts)
		if res.StorageBytesPeak > streamBudgetBound {
			t.Errorf("%s (%d points): StorageBytesPeak = %d, want <= %d",
				tc.name, tc.points, res.StorageBytesPeak, streamBudgetBound)
		}
		peaks[tc.name] = res.StorageBytesPeak
	}
	// Flatness, not just boundedness: the 25x workload may not grow the peak.
	if peaks["large"] > peaks["small"] {
		t.Errorf("peak grew with NPTS: small=%d large=%d", peaks["small"], peaks["large"])
	}
}

func TestStreamingRequiresPipelined(t *testing.T) {
	ev := testEvent(t)
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Streaming = true
	_, err := Run(context.Background(), dir, FullParallel, opts)
	if err == nil || !strings.Contains(err.Error(), "streaming requires the pipelined variant") {
		t.Errorf("Run(FullParallel, Streaming) = %v, want variant rejection", err)
	}
}

func TestStreamingRejectsChaos(t *testing.T) {
	ev := testEvent(t)
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Streaming = true
	opts.Chaos = &faults.Config{Seed: 1, Rate: 0.5}
	_, err := Run(context.Background(), dir, Pipelined, opts)
	if err == nil || !strings.Contains(err.Error(), "streaming mode cannot be combined with chaos") {
		t.Errorf("Run(Streaming+Chaos) = %v, want rejection", err)
	}
}

// streamCrashHelperEnv hands the work directory to the sacrificial child of
// the streaming crash case; it keeps TestStreamCrashRunHelper inert
// otherwise.
const streamCrashHelperEnv = "ACCELPROC_STREAM_CRASH_HELPER_DIR"

// streamCrashOptions must agree between the child and the resuming parent —
// Streaming participates in the journal's params digest.
func streamCrashOptions() Options {
	opts := testOptions()
	opts.Workers = 1
	opts.Journal = true
	opts.Streaming = true
	return opts
}

// TestStreamCrashRunHelper runs only as the re-exec'd child of
// TestStreamingCrashResume; the armed stream-node crash point SIGKILLs it
// after a streamed filter sent a component downstream and before its
// durable V2 commit.
func TestStreamCrashRunHelper(t *testing.T) {
	dir := os.Getenv(streamCrashHelperEnv)
	if dir == "" {
		t.Skip("helper: only meaningful as a crash-matrix subprocess")
	}
	if _, err := Run(context.Background(), dir, Pipelined, streamCrashOptions()); err != nil {
		t.Fatalf("helper run: %v", err)
	}
}

// TestStreamingCrashResume is the crash-matrix case for the streaming plane:
// kill -9 inside a streamed per-record node — after its upstream chunks were
// consumed and its corrected chunks sent, before its durable output
// committed — then resume.  The journal never acknowledged the node, so
// resume must re-execute it (not trust half-written state), sweep the
// stranded tmp_stream_* scratch, and land byte-identical products.
func TestStreamingCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	ctx := context.Background()
	ev := testEvent(t)
	totalNodes := int64(len(ev.Records)) * perRecordNodes

	// The uninterrupted streaming reference.
	refDir := filepath.Join(t.TempDir(), "ref")
	if err := PrepareWorkDir(refDir, ev); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, refDir, Pipelined, streamCrashOptions()); err != nil {
		t.Fatal(err)
	}
	ref := productHashes(t, refDir)

	// Hit 2 dies in the second component of the first record's default
	// filter: one V2 durable, the second's chunks sent but its V2 unwritten,
	// the out-stream mid-flight.
	for _, arm := range []string{
		faults.CrashStreamNode + ":2",
		faults.CrashStreamNode + ":5",
	} {
		arm := arm
		t.Run(arm, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "work")
			if err := PrepareWorkDir(dir, ev); err != nil {
				t.Fatal(err)
			}

			cmd := exec.Command(os.Args[0], "-test.run", "^TestStreamCrashRunHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				streamCrashHelperEnv+"="+dir,
				faults.CrashEnv+"="+arm,
			)
			out, err := cmd.CombinedOutput()
			if !killedBySIGKILL(err) {
				t.Fatalf("subprocess survived crash point %s (err=%v):\n%s", arm, err, out)
			}

			opts := streamCrashOptions()
			opts.Resume = true
			opts.Observer = obs.New()
			res, err := Run(ctx, dir, Pipelined, opts)
			if err != nil {
				t.Fatalf("resume after %s: %v", arm, err)
			}
			if !res.Resume.Resumed {
				t.Fatalf("resume did not adopt the journal: %+v", res.Resume)
			}
			if len(res.Quarantined) != 0 {
				t.Fatalf("resume quarantined %v, want none", res.Quarantined)
			}
			if int64(res.Resume.NodesJournaled) != res.Resume.NodesSkipped {
				t.Errorf("journaled %d nodes but skipped %d",
					res.Resume.NodesJournaled, res.Resume.NodesSkipped)
			}
			executed := recordNodesExecuted(opts)
			if got := executed + res.Resume.NodesSkipped + res.Cache.ActionHits; got != totalNodes {
				t.Errorf("executed %d + skipped %d + cache hits %d = %d, want %d",
					executed, res.Resume.NodesSkipped, res.Cache.ActionHits, got, totalNodes)
			}
			if executed == 0 {
				t.Error("the crashed mid-stream node was not re-executed")
			}
			// The kill strands the run's tmp_stream_* scratch; resume sweeps it.
			if res.Resume.ScratchSwept == 0 {
				t.Errorf("crash at %s left no scratch to sweep, expected stranded tmp_stream_* dirs", arm)
			}
			assertSameProducts(t, productHashes(t, dir), ref, arm)
		})
	}
}
