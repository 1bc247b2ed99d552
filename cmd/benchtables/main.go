// Command benchtables regenerates the paper's evaluation — Table I and
// Figures 11, 12, and 13 — on synthetic reproductions of the six seismic
// events, printing each in a layout comparable to the publication.
//
// Usage:
//
//	benchtables [-scale 0.16] [-workers 0] [-method duhamel|nj]
//	            [-periods 8] [-repeat 1] [-variants seq-original,full]
//	            [-table1] [-fig11] [-fig12] [-fig13] [-check]
//	            [-fleet] [-fleet-events 8] [-fleet-policy p] [-admit 0]
//	            [-cache off|mem|disk[:dir]] [-storage fs|mem] [-stream]
//	            [-streambench [-stream-npts 35000,250000,1000000]]
//	            [-ingestbench] [-json BENCH_label.json]
//	            [-compare old.json [-threshold 0.1]] [new.json]
//	            [-trace spans.jsonl] [-metrics metrics.txt] [-pprof cpu.out]
//
// With no selection flags, everything is produced.  -scale sets the
// workload size (1.0 = the paper's data-point counts; the default is the
// calibrated reference scale, see EXPERIMENTS.md); -check evaluates the
// reproduction-shape assertions and exits non-zero if any fails.  -json
// writes a machine-readable report of the Table I run — per-variant and
// per-stage timings, derived speedups, host info, and any -check results —
// to the given file; the repo commits such reports as BENCH_<label>.json
// baselines (see EXPERIMENTS.md "Machine-readable reports").
// -fleet runs the multi-event saturation benchmark instead of (or alongside)
// the paper tables: a queue of -fleet-events identical-shape events is
// offered to one shared worker pool under each fleet scheduling policy
// (or just -fleet-policy), reporting per-event latency quantiles and
// aggregate throughput against a sequential-RunBatch baseline; -admit caps
// concurrently-open events (0 = policy default).  With -check, the fleet
// acceptance criteria are evaluated; with -json, the report gains a "fleet"
// block plus a synthetic fleet event whose variants are the per-policy queue
// makespans, so -compare gates fleet baselines like any other.
// -fleet is excluded from the no-flag default selection.
// -stream runs every measured pipelined variant with the streaming execution
// plane (Options.Streaming; other variants are unaffected).  -streambench
// runs the streaming-plane memory ablation instead: for each per-record
// length in -stream-npts, a materialized and a streaming pipelined run on
// the mem backend, reporting peak residency and output identity; with
// -check, the flat-StorageBytesPeak acceptance criteria are evaluated, and
// with -json the report gains a "stream" block plus synthetic per-NPTS
// event rows so -compare gates streaming baselines like any other.
// -streambench is excluded from the no-flag default selection.
// -ingestbench runs the ingest-plane decode microbenchmark: every
// registered input format decodes the same synthetic record, fastest of
// -repeat kept.  Any -json run attaches it automatically as an "ingest"
// block plus a synthetic "ingest-decode" event row whose variants are the
// per-format decode times, so -compare gates decode-path regressions
// against the committed baselines like any other cell.
// -cache selects the caching layers of every measured run: off, mem (the
// default in-process memo), or disk[:dir] (the persistent action cache —
// the cold-vs-warm ablation endpoint; see -ablations); off is the
// cached-vs-uncached ablation endpoint, and outputs are byte-identical in
// every mode.  -storage selects the storage plane for every
// measured run: fs (default) or mem, the disk-vs-memory ablation endpoints;
// the report's host block records the backend and, on mem, the peak
// in-memory residency.  -compare runs no benchmarks: it diffs two
// committed reports — the old baseline named by the flag, the new one as
// the positional argument — printing per-event, per-variant deltas and
// exiting non-zero when any variant slowed down by more than -threshold
// (relative, default 0.10).  -trace captures every measured run's span
// tree — the Figure 11 rows are derived from the same spans — and
// -metrics/-pprof write the metrics exposition and a CPU profile (see
// README "Observability").
//
// Exit codes: 0 when every measured run was fully healthy, 1 on a fatal
// error (including failed -check assertions or -compare regressions), and
// 3 when the evaluation completed but some measured run quarantined
// records (only possible under -chaos).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"accelproc/internal/bench"
	"accelproc/internal/cliobs"
	"accelproc/internal/dataflow"
	"accelproc/internal/pipeline"
	"accelproc/internal/response"
	"accelproc/internal/storage"
	"accelproc/internal/synth"
)

// errQuarantined marks an evaluation that completed but lost records to
// quarantine in some measured run; main maps it to exit code 3.
var errQuarantined = errors.New("completed with quarantined records")

// exitCode maps a run error to the documented process exit code.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errQuarantined):
		return 3
	default:
		return 1
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
	}
	os.Exit(exitCode(err))
}

// parseVariants splits a comma-separated -variants value.
func parseVariants(s string) ([]pipeline.Variant, error) {
	if s == "" {
		return nil, nil
	}
	var out []pipeline.Variant
	for _, part := range strings.Split(s, ",") {
		v, err := pipeline.ParseVariant(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseInts splits a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("bad value %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// errChecksFailed marks a completed run whose shape checks did not pass.
var errChecksFailed = fmt.Errorf("reproduction shape checks failed")

// runCompare implements -compare: diff two committed reports and fail on
// regressions beyond the threshold.
func runCompare(stdout io.Writer, oldPath, newPath string, threshold float64) error {
	if threshold < 0 {
		return fmt.Errorf("-threshold %g must be non-negative", threshold)
	}
	oldRep, err := bench.ReadReportFile(oldPath)
	if err != nil {
		return err
	}
	newRep, err := bench.ReadReportFile(newPath)
	if err != nil {
		return err
	}
	c := bench.Compare(oldRep, newRep)
	fmt.Fprint(stdout, c.Format(threshold))
	if n := len(c.Regressions(threshold)); n > 0 {
		return fmt.Errorf("%d variant(s) regressed beyond %.1f%%", n, 100*threshold)
	}
	return nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	var obsFlags cliobs.Flags
	obsFlags.Register(fs)
	var (
		scale      = fs.Float64("scale", bench.ReferenceScale, "workload scale factor (1.0 = paper data sizes; default is the calibrated reference scale)")
		workers    = fs.Int("workers", 0, "worker budget for parallel variants (0 = all processors)")
		method     = fs.String("method", "duhamel", "stage IX method: duhamel (legacy O(D^2)) or nj (Nigam-Jennings O(D))")
		periods    = fs.Int("periods", bench.ShapePeriods, "response-spectrum period count")
		repeat     = fs.Int("repeat", 1, "repetitions per measurement (fastest kept)")
		variants   = fs.String("variants", "", "comma-separated variants to measure (default: all five)")
		jsonPath   = fs.String("json", "", "write a machine-readable report of the Table I run to this file")
		table1     = fs.Bool("table1", false, "produce Table I")
		fig11      = fs.Bool("fig11", false, "produce Figure 11 (per-stage, largest event)")
		fig12      = fs.Bool("fig12", false, "produce Figure 12 (per-event bars)")
		fig13      = fs.Bool("fig13", false, "produce Figure 13 (speedup/throughput vs size)")
		check      = fs.Bool("check", false, "evaluate reproduction-shape assertions")
		fleetSel   = fs.Bool("fleet", false, "run the multi-event saturation benchmark (fleet scheduler)")
		fleetEvs   = fs.Int("fleet-events", 8, "queue length for the fleet benchmark")
		fleetPol   = fs.String("fleet-policy", "", "measure only this fleet policy (default: latency, balanced, and throughput)")
		admit      = fs.Int("admit", 0, "fleet admission cap: max concurrently-open events (0 = policy default)")
		ablations  = fs.Bool("ablations", false, "run the design-choice ablations on the mid-size event")
		smoke      = fs.Bool("smoke", false, "self-test mode: two tiny synthetic events instead of the paper's six")
		chaos      = fs.Float64("chaos", 0, "fault-injection rate in [0,1] for the temp-folder protocol: measure the degraded mode")
		chaosSeed  = fs.Int64("chaos-seed", 1, "seed for the deterministic fault injector")
		cacheFlag  = fs.String("cache", "", "cache layers for every measured run: off, mem (default), or disk[:dir]")
		storageNm  = fs.String("storage", "fs", "storage backend for every measured run: fs (plain filesystem) or mem (in-memory inter-stage files)")
		streaming  = fs.Bool("stream", false, "run measured pipelined variants with the streaming execution plane")
		streamSel  = fs.Bool("streambench", false, "run the streaming-plane memory ablation (NPTS sweep on the mem backend)")
		streamNPTS = fs.String("stream-npts", "", "comma-separated per-record NPTS sweep for -streambench (default 35000,250000,1000000)")
		ingestSel  = fs.Bool("ingestbench", false, "run the per-format ingest decode microbenchmark (always attached to -json reports)")
		compare    = fs.String("compare", "", "diff this baseline report against the report given as positional argument, then exit")
		threshold  = fs.Float64("threshold", 0.10, "relative slowdown treated as a regression by -compare (0.10 = 10%)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *compare != "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("-compare needs exactly one positional argument (the new report), got %d", fs.NArg())
		}
		return runCompare(stdout, *compare, fs.Arg(0), *threshold)
	}

	all := !*table1 && !*fig11 && !*fig12 && !*fig13 && !*check && !*ablations && !*fleetSel && !*streamSel && !*ingestSel
	// -check applies to whatever ran: the classic tables (always, unless the
	// run is fleet- or streambench-only) and the fleet/stream benchmarks
	// when their flags are set.
	classic := *table1 || *fig11 || *fig12 || *fig13 || *ablations
	shapeCheck := *check && ((!*fleetSel && !*streamSel) || classic)

	m, err := response.ParseMethod(*method)
	if err != nil {
		return err
	}
	vs, err := parseVariants(*variants)
	if err != nil {
		return err
	}
	backend, err := storage.ParseBackend(*storageNm)
	if err != nil {
		return err
	}
	cacheCfg, err := pipeline.ParseCacheFlag(*cacheFlag)
	if err != nil {
		return err
	}
	session, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer session.Close()
	cfg := bench.Config{
		Scale:     *scale,
		Workers:   *workers,
		Repeat:    *repeat,
		Variants:  vs,
		Observer:  session.Observer,
		ChaosRate: *chaos,
		ChaosSeed: *chaosSeed,
		Cache:     cacheCfg,
		Storage:   backend,
		Streaming: *streaming,
		Response: response.Config{
			Method:  m,
			Periods: response.LogPeriods(0.05, 10, *periods),
		},
	}
	fig11Spec := synth.PaperEvents()[5]    // Jul-31-2019: 19 files, 384K points
	ablationSpec := synth.PaperEvents()[2] // Jul-10-2019: 9 files, mid-size
	if *smoke {
		cfg.Events = []synth.EventSpec{
			{Name: "smoke-1", Files: 2, TotalPoints: 2000, Magnitude: 4.5, Seed: 1},
			{Name: "smoke-2", Files: 3, TotalPoints: 4500, Magnitude: 5.0, Seed: 2},
		}
		cfg.Scale = 1.0
		fig11Spec = cfg.Events[1]
		ablationSpec = cfg.Events[0]
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "accelproc evaluation: scale=%g workers=%d method=%s periods=%d repeat=%d storage=%s GOMAXPROCS=%d\n\n",
		cfg.Scale, *workers, m, *periods, *repeat, backend, runtime.GOMAXPROCS(0))

	progress := func(s string) { fmt.Fprintln(stderr, "running "+s) }

	var results []bench.EventResult
	if all || *table1 || *fig12 || *fig13 || shapeCheck || (*jsonPath != "" && (all || classic)) {
		var err error
		results, err = bench.RunTable1(ctx, cfg, progress)
		if err != nil {
			return err
		}
	}
	var f11 bench.Fig11Result
	if all || *fig11 || shapeCheck {
		progress(fmt.Sprintf("figure 11 on %s", fig11Spec.Name))
		var err error
		f11, err = bench.RunFig11(ctx, fig11Spec, cfg)
		if err != nil {
			return err
		}
	}

	if all || *table1 {
		fmt.Fprintln(stdout, bench.FormatTable1(results))
	}
	if all || *fig11 {
		fmt.Fprintln(stdout, bench.FormatFig11(f11))
	}
	if all || *fig12 {
		fmt.Fprintln(stdout, bench.FormatFig12(results))
	}
	if all || *fig13 {
		fmt.Fprintln(stdout, bench.FormatFig13(results))
	}
	if all || *ablations {
		progress(fmt.Sprintf("ablations on %s", ablationSpec.Name))
		abl, err := bench.RunAblations(ctx, ablationSpec, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.FormatAblations(abl))
	}

	var fleetRes *bench.FleetResult
	if *fleetSel {
		fcfg := bench.FleetConfig{
			Queue:    *fleetEvs,
			Scale:    cfg.Scale,
			Workers:  cfg.Workers,
			Admit:    *admit,
			Repeat:   cfg.Repeat,
			Response: cfg.Response,
			Storage:  cfg.Storage,
			Observer: cfg.Observer,
		}
		if *fleetPol != "" {
			p, err := dataflow.ParsePolicy(*fleetPol)
			if err != nil {
				return err
			}
			fcfg.Policies = []dataflow.Policy{p}
		}
		if *smoke {
			fcfg.Queue = 3
			fcfg.Scale = 1.0
			fcfg.Spec = synth.EventSpec{Name: "fleet-smoke", Files: 2, TotalPoints: 1200, Magnitude: 4.6, Seed: 3}
		}
		if err := fcfg.Validate(); err != nil {
			return err
		}
		progress(fmt.Sprintf("fleet saturation: %d-event queue", fcfg.Queue))
		fr, err := bench.RunFleetBench(ctx, fcfg, progress)
		if err != nil {
			return err
		}
		fleetRes = &fr
		fmt.Fprintln(stdout, bench.FormatFleet(fr))
	}

	var streamRes *bench.StreamResults
	if *streamSel {
		scfg := bench.StreamConfig{
			Workers:  cfg.Workers,
			Observer: cfg.Observer,
		}
		if *streamNPTS != "" {
			npts, err := parseInts(*streamNPTS)
			if err != nil {
				return fmt.Errorf("-stream-npts: %w", err)
			}
			scfg.NPTS = npts
		}
		if *smoke && scfg.NPTS == nil {
			scfg.NPTS = []int{4000, 16000}
		}
		if err := scfg.Validate(); err != nil {
			return err
		}
		progress("stream ablation: NPTS sweep on the mem backend")
		sr, err := bench.RunStreamBench(ctx, scfg, progress)
		if err != nil {
			return err
		}
		streamRes = &sr
		fmt.Fprintln(stdout, bench.FormatStreamBench(sr))
	}

	var ingestRes *bench.IngestResult
	if *ingestSel || *jsonPath != "" {
		progress("ingest decode microbenchmark")
		ir, err := bench.RunIngestBench(ctx, bench.IngestConfig{Repeat: cfg.Repeat})
		if err != nil {
			return err
		}
		ingestRes = &ir
		if *ingestSel {
			fmt.Fprintln(stdout, bench.FormatIngest(ir))
		}
	}

	var checkLines []string
	checksFailed := false
	if all || shapeCheck {
		checkLines = bench.ShapeChecks(results, f11)
		fmt.Fprintln(stdout, "REPRODUCTION SHAPE CHECKS")
		for _, line := range checkLines {
			fmt.Fprintln(stdout, line)
			if strings.HasPrefix(line, "[FAIL]") {
				checksFailed = true
			}
		}
	}
	// The fleet criteria compare the policies against each other, so they
	// are only meaningful when the full default policy set was measured.
	if *fleetSel && *check && *fleetPol == "" {
		fleetLines := bench.FleetChecks(*fleetRes)
		fmt.Fprintln(stdout, "FLEET SCHEDULER CHECKS")
		for _, line := range fleetLines {
			fmt.Fprintln(stdout, line)
			if strings.HasPrefix(line, "[FAIL]") {
				checksFailed = true
			}
		}
		checkLines = append(checkLines, fleetLines...)
	}
	if *streamSel && *check {
		streamLines := bench.StreamChecks(*streamRes)
		fmt.Fprintln(stdout, "STREAMING PLANE CHECKS")
		for _, line := range streamLines {
			fmt.Fprintln(stdout, line)
			if strings.HasPrefix(line, "[FAIL]") {
				checksFailed = true
			}
		}
		checkLines = append(checkLines, streamLines...)
	}
	// The JSON report is written even when checks fail: a failing baseline
	// is evidence worth keeping.
	if *jsonPath != "" {
		label := strings.TrimSuffix(filepath.Base(*jsonPath), filepath.Ext(*jsonPath))
		label = strings.TrimPrefix(label, "BENCH_")
		rep := bench.NewReport(label, cfg, results, checkLines)
		if fleetRes != nil {
			rep.AttachFleet(*fleetRes)
		}
		if streamRes != nil {
			rep.AttachStream(*streamRes)
		}
		if ingestRes != nil {
			rep.AttachIngest(*ingestRes)
		}
		if err := rep.WriteFile(*jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if checksFailed {
		return errChecksFailed
	}
	if err := session.Close(); err != nil {
		return err
	}
	var quarantined int64
	for _, r := range results {
		quarantined += r.Quarantined
	}
	if quarantined > 0 {
		fmt.Fprintf(stdout, "quarantined records across measured runs: %d\n", quarantined)
		return errQuarantined
	}
	return nil
}
