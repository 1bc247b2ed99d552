// Command benchmark measures the accelerographic records pipeline on the
// host's real cores: four closed-batch workloads, each timed end to end with
// tracing off, and a separate traced pass that breaks the time down by
// layer.  Every run's products are checked against a seq-original reference
// run on the same inputs.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh [--workload NAME[,NAME...]|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//
// With one workload the last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Several workloads
// run one after another, each in its own child process.  See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"accelproc/internal/obs"
)

// runSeconds is how long a run measures unless --seconds says otherwise.
// BENCHMARK.json declares it as run_seconds, and a test keeps the two equal,
// so the bounds are calibrated on the run length that is gated.
const runSeconds = 30

// setupRepeats is how many times a run sets up, so setup_s is a median.
const setupRepeats = 3

// minIterations keeps a median (and, traced, both halves of the overhead
// comparison) meaningful on a host slowed far below the sizing.
const minIterations = 4

type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable outcome, printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics a run reports with tracing off, with units;
// perLayer those of the traced pass.  BENCHMARK.json declares the same.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"iter_s", "s"},
	{"event_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
}

var perLayer = []struct{ name, unit string }{
	{"pipeline.separate_s", "s"},
	{"pipeline.filter_s", "s"},
	{"pipeline.fourier_s", "s"},
	{"pipeline.response_s", "s"},
	{"pipeline.gem_s", "s"},
	{"pipeline.plot_s", "s"},
	{"pipeline.meta_s", "s"},
	{"pipeline.unattributed_s", "s"},
	{"parallel.worker_busy_s", "s"},
	{"parallel.worker_idle_s", "s"},
	{"dataflow.nodes", "count"},
	{"dataflow.ready_wait_ms", "ms"},
	{"dataflow.dispatch_us_per_node", "us"},
	{"response.spectrum_s", "s"},
	{"response.oscillator_points", "count"},
	{"dsp.bandpass_s", "s"},
	{"dsp.fft_s", "s"},
	{"dsp.points", "count"},
	{"fourier.spectra_s", "s"},
	{"fourier.pick_s", "s"},
	{"smformat.decode_s", "s"},
	{"smformat.encode_s", "s"},
	{"smformat.bytes", "bytes"},
	{"ingest.decode_s", "s"},
	{"ingest.bytes", "bytes"},
	{"storage.read_s", "s"},
	{"storage.write_s", "s"},
	{"storage.ops", "count"},
	{"storage.bytes", "bytes"},
	{"journal.append_s", "s"},
	{"journal.bytes", "bytes"},
	{"artifact.put_s", "s"},
	{"artifact.restore_s", "s"},
	{"artifact.action_bytes", "bytes"},
	{"stream.transfer_s", "s"},
	{"stream.chunks", "count"},
	{"obs.spans", "count"},
	{"obs.overhead_frac", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "workload to run: paper, ops, catalog, longrec, a comma list, or all")
	seed := fs.Int64("seed", 0, "input seed; 0 generates the presets")
	seconds := fs.Int("seconds", runSeconds, "seconds of measured iterations per workload")
	trace := fs.Int("trace", 0, "1 runs the traced pass instead: per-layer metrics, spans.jsonl and layers.json")
	out := fs.String("out", ".bench_build", "directory for work files and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: want --seconds >= 1, --trace 0 or 1, and no arguments")
		return 2
	}
	var selected []*workload
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			selected = append(selected, workloads...)
			continue
		}
		w, err := workloadByName(name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = append(selected, w)
	}
	if len(selected) > 1 {
		return runChildren(selected, args, stdout, stderr)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	res, err := measure(selected[0], selected[0].size, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", selected[0].name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runChildren runs each workload in its own child process, one after
// another, so no workload's heap or peak RSS leaks into another's numbers.
func runChildren(selected []*workload, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	status := 0
	for _, w := range selected {
		// The last --workload on a command line wins.
		cmd := exec.Command(self, append(slices.Clip(args), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: workload %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// measure runs one workload: set up (several times, for a median), then
// iterations until cfg.seconds have passed.
// A traced run alternates traced and untraced iterations and finishes with
// the layer replay.  The human report goes to report.
func measure(w *workload, sz size, cfg config, report io.Writer) (*result, error) {
	root, err := filepath.Abs(filepath.Join(cfg.out, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var b *bench
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if err := os.RemoveAll(root); err != nil {
			return nil, err
		}
		nb := &bench{w: w, sz: sz, seed: cfg.seed, root: root, s: series{}}
		t0 := time.Now()
		if err := w.setup(nb); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if b != nil && !slices.Equal(fingerprints(b), fingerprints(nb)) {
			return nil, errors.New("setup: reference products differ between identical setups")
		}
		b = nb
	}
	if cfg.seed == 0 && sz == w.size && runtime.GOARCH == "amd64" {
		g, err := golden()
		if err != nil {
			return nil, err
		}
		if got := fingerprints(b); !slices.Equal(got, g[w.name]) {
			b.failed++
			b.problems = append(b.problems, fmt.Sprintf("reference fingerprints %v differ from golden.json %v", got, g[w.name]))
		}
	}

	var tr *tracer
	if cfg.trace {
		if tr, err = newTracer(filepath.Join(cfg.out, "trace", w.name)); err != nil {
			return nil, err
		}
		defer tr.close()
	}
	// No warm-up iteration is discarded: the reference runs have already
	// warmed the process, and medians absorb a slow first iteration.
	b.s["setup_s"] = setups

	var rssErr error
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for i := 1; i <= minIterations || time.Now().Before(deadline); i++ {
		traced := tr != nil && i%2 == 0
		untraced := b.s
		var o *obs.Observer
		if traced {
			b.s, o = tr.s, tr.o
		}
		// Every iteration starts from a collected heap returned to the
		// kernel, with no dirty pages left to write back, so its peak RSS
		// is its own footprint rather than what earlier runs left mapped.
		debug.FreeOSMemory()
		syscall.Sync()
		rssErr = resetPeakRSS()
		b.iterWall, b.iterCPU = 0, 0
		if err := w.iterate(b, i, o); err != nil {
			return nil, err
		}
		peak, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		b.s.add("iter_s", b.iterWall.Seconds())
		b.s.add("cpu_s", b.iterCPU.Seconds())
		b.s.add("peak_rss_mib", peak)
		if traced {
			tr.afterIteration()
		}
		b.s = untraced
	}
	elapsed := time.Since(start)

	res := &result{Metrics: map[string]metric{}}
	var extras map[string]metric
	if tr != nil {
		layers, err := tracedMetrics(b, tr)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		}
		if w.extras != nil {
			if extras, err = w.extras(b); err != nil {
				return nil, err
			}
		}
		if err := writeLayers(filepath.Join(cfg.out, "trace", w.name, "layers.json"), w, cfg, layers, extras); err != nil {
			return nil, err
		}
	} else {
		values := map[string]float64{
			"setup_s":      median(setups),
			"iter_s":       median(b.s["iter_s"]),
			"event_s":      median(b.s[w.headline]),
			"cpu_s":        median(b.s["cpu_s"]),
			"peak_rss_mib": median(b.s["peak_rss_mib"]),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.attempted > 0 && b.failed == 0
	printReport(report, b, cfg, elapsed, rssErr, res, extras)
	return res, nil
}

// fingerprints lists the reference fingerprint of each input set.
func fingerprints(b *bench) []string {
	out := make([]string, len(b.sets))
	for i, set := range b.sets {
		out[i] = set.ref.fingerprint()
	}
	return out
}

// unitOf infers a series' unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_pts_s"):
		return "pts/s"
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "_s."):
		return "s"
	case strings.HasSuffix(name, "_mib"):
		return "MiB"
	}
	return "count"
}

// printReport writes the human-readable tables: every sampled series with
// its median, IQR and n, then the traced pass's per-layer values.
func printReport(w io.Writer, b *bench, cfg config, elapsed time.Duration, rssErr error, res *result, extras map[string]metric) {
	mode := "end to end, tracing off"
	if cfg.trace {
		mode = "traced pass; the table covers its untraced iterations"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s: %d input points, measured %.1f s\n",
		b.w.name, b.seed, mode, b.points, elapsed.Seconds())
	fmt.Fprintf(w, "  %-28s %-6s %12s %12s %5s\n", "metric", "unit", "median", "IQR", "n")
	names := make([]string, 0, len(b.s))
	for name := range b.s {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		s := summarize(b.s[name])
		fmt.Fprintf(w, "  %-28s %-6s %12.6g %12.6g %5d\n", name, unitOf(name), s.Median, s.IQR, s.N)
		if label, v, ok := tailQuantile(b.s[name]); ok && unitOf(name) == "s" {
			fmt.Fprintf(w, "  %-28s %-6s %12.6g\n", strings.TrimSuffix(name, "_s")+"_"+label+"_s", "s", v)
		}
	}
	fmt.Fprintf(w, "  %-28s %-6s %12.6g   (%d of %d runs)\n", "failed_frac", "ratio",
		float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	if rssErr != nil {
		fmt.Fprintf(w, "  note: peak RSS could not be reset between iterations (%v); it is the process's peak\n", rssErr)
	}
	if cfg.trace {
		fmt.Fprintf(w, "  per-layer metrics (traced iterations and layer replay):\n")
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-32s %-6s %14.6g\n", m.name, m.unit, res.Metrics[m.name].Value)
		}
		keys := make([]string, 0, len(extras))
		for k := range extras {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-32s %-6s %14.6g\n", k, extras[k].Unit, extras[k].Value)
		}
		printTimeShares(w, res)
	}
	fmt.Fprintf(w, "  reference fingerprints: %s\n", strings.Join(fingerprints(b), " "))
	for _, p := range b.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}
