// Command smproc processes strong-motion V1 files with one of the five
// pipeline implementations, reporting per-stage timings and the produced
// file inventory.
//
// Usage:
//
//	smproc -dir work/ [-variant full] [-workers 0] [-method nj]
//	       [-periods 91] [-clean] [-trace run.jsonl] [-metrics metrics.txt]
//	smproc -batch "ev1,ev2,ev3" [-variant full] [-event-workers 0]
//	smproc -batch "ev1,ev2,ev3" -fleet [-fleet-policy balanced] [-admit 0]
//
// A directory must contain one record file per station in any registered
// ingest format — native V1 (.v1), GeoNet-style V1A (.v1a), the
// miniSEED-like binary (.ms), or CSV (.csv); generate synthetic ones with
// the synthgen command.  Formats are sniffed per file by magic bytes, so a
// single event may mix formats; -format forces one registry key for every
// input instead.  -qc arms the record QC gate: records that are too short,
// clipped, gappy, or structurally inconsistent are quarantined with a
// typed reason instead of poisoning the run (see README "Ingest formats").
// -variant selects seq-original, seq-optimized, partial, full, or
// pipelined (the barrier-free record-level dataflow schedule).  -clean
// removes all pipeline products first so the run starts from a pristine
// directory.
// -batch processes several event directories concurrently.  -fleet switches
// batch mode to the fleet scheduler (pipeline.RunFleet): every event runs
// the pipelined variant and their record-level task graphs share one worker
// pool, with -fleet-policy choosing the dispatch order (latency = oldest
// event first, throughput = global packing, balanced = the default
// compromise) and -admit capping concurrently-open events (0 = the policy
// default); per-event queue wait and latency are reported.  -trace,
// -metrics, and -pprof capture the run's span tree, metrics exposition,
// and CPU profile (see README "Observability").  -chaos injects seeded
// faults into the temp-folder protocol (-chaos-seed makes runs
// reproducible); failing records are retried per -retries and then
// quarantined under <dir>/quarantine.  -cache selects the caching layers:
// off (none), mem (the default in-process memo), or disk[:dir] (memo plus
// the persistent content-addressed action cache under <dir>/.smcache or
// the given directory, so a warm re-run redoes only changed records;
// outputs are byte-identical in every mode — see README "The artifact
// cache").
// -storage selects the storage plane: fs (default, plain filesystem) or
// mem (inter-stage files held in memory, final products materialized to
// disk at the end of the run; outputs byte-identical — see README
// "The storage plane").  -stream enables the streaming execution plane
// (pipelined variant only): records flow through the hot stages a
// fixed-size chunk at a time and every product is written incrementally,
// so peak memory stays flat no matter how long the records are; outputs
// remain byte-identical (see README "Streaming mode").  Interrupting the
// process (SIGINT/SIGTERM) cancels the run cleanly, including scratch
// folders.
//
// Crash safety: journaled runs (-journal, on by default) append a
// write-ahead record to <dir>/.smrun after every durability point, and
// -resume replays a surviving journal after kill -9 so only unfinished
// work re-executes (see README "Crash-safe runs").  -cache-fsck scrubs a
// persistent action cache instead of processing: manifests are verified
// against blob digests, damaged entries and orphan blobs deleted, and a
// machine-readable JSON summary printed.
//
// Exit codes: 0 on a fully healthy run, 1 on a fatal error, and 3 when
// the run completed but quarantined at least one record.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"accelproc/internal/artifact"
	"accelproc/internal/cliobs"
	"accelproc/internal/dataflow"
	"accelproc/internal/dsp"
	"accelproc/internal/faults"
	"accelproc/internal/ingest"
	"accelproc/internal/obs"
	"accelproc/internal/pipeline"
	"accelproc/internal/response"
	"accelproc/internal/storage"
)

// errQuarantined marks a run that completed end to end but gave up on at
// least one record; main maps it to exit code 3 so schedulers can tell
// "done with losses" from "failed" (exit 1) without parsing output.
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
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smproc:", err)
	}
	os.Exit(exitCode(err))
}

func parseInstrument(s string) (*dsp.Instrument, error) {
	var f0, damping float64
	if _, err := fmt.Sscanf(s, "%f,%f", &f0, &damping); err != nil {
		return nil, fmt.Errorf("bad -instrument %q (want \"f0,damping\"): %v", s, err)
	}
	in := &dsp.Instrument{F0: f0, Damping: damping}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smproc", flag.ContinueOnError)
	var obsFlags cliobs.Flags
	obsFlags.Register(fs)
	var (
		dir          = fs.String("dir", "", "work directory of <station> record inputs (any registered ingest format)")
		batch        = fs.String("batch", "", "comma-separated list of work directories to process concurrently")
		variant      = fs.String("variant", "full", "implementation: seq-original, seq-optimized, partial, full, or pipelined")
		workers      = fs.Int("workers", 0, "worker budget for parallel stages (0 = all processors)")
		eventWorkers = fs.Int("event-workers", 0, "concurrent events in batch mode (0 = all processors)")
		fleetMode    = fs.Bool("fleet", false, "schedule the batch on one shared worker pool (pipelined variant, see -fleet-policy)")
		fleetPolicy  = fs.String("fleet-policy", "", "fleet dispatch policy: latency, balanced (default), or throughput")
		admit        = fs.Int("admit", 0, "max concurrently-open events in fleet mode (0 = policy default)")
		method       = fs.String("method", "nj", "response-spectrum method: duhamel (legacy) or nj (fast)")
		periods      = fs.Int("periods", 91, "response-spectrum period count")
		clean        = fs.Bool("clean", false, "remove previous pipeline products before running")
		instr        = fs.String("instrument", "", "deconvolve an instrument response first: \"f0,damping\" (e.g. \"25,0.7\" for an SMA-1 style sensor)")
		verbose      = fs.Bool("verbose", false, "print each process as it completes")
		chaos        = fs.Float64("chaos", 0, "fault-injection rate in [0,1] for the temp-folder protocol (0 = off); failing records are retried, then quarantined")
		chaosSeed    = fs.Int64("chaos-seed", 1, "seed for the deterministic fault injector (same seed = same faults)")
		maxAttempts  = fs.Int("retries", 0, "max attempts per staging operation before quarantining the record (0 = default 3)")
		cacheFlag    = fs.String("cache", "", "cache layers: off, mem (default), or disk[:dir] (persistent action cache; dir defaults to <workdir>/.smcache)")
		cacheVerify  = fs.Bool("cache-verify", false, "re-hash every restored action-cache blob against its recorded checksum")
		cacheMax     = fs.Int64("cache-max-bytes", 0, "action-cache size bound in bytes (0 = 256 MiB default, negative = unbounded)")
		formatName   = fs.String("format", "", "force the ingest format of every input file: "+strings.Join(ingest.Names(), ", ")+" (default: sniff each file by magic, then extension)")
		qcGate       = fs.Bool("qc", false, "enable the record QC gate thresholds (duration, clip, gap); rejects are quarantined with their typed reason")
		storageName  = fs.String("storage", "fs", "storage backend: fs (plain filesystem) or mem (in-memory inter-stage files, final products written to disk)")
		streaming    = fs.Bool("stream", false, "streaming execution plane: process records chunk-at-a-time with bounded memory (pipelined variant only)")
		journal      = fs.Bool("journal", true, "write a crash-recovery run journal under <dir>/.smrun")
		resume       = fs.Bool("resume", false, "replay a surviving run journal: skip finished work, restore quarantine verdicts, sweep stale scratch (implies -journal)")
		cacheFsck    = fs.Bool("cache-fsck", false, "scrub the persistent action cache instead of processing: verify digests, drop damaged entries, collect orphan blobs, print a JSON summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*dir == "") == (*batch == "") {
		return fmt.Errorf("exactly one of -dir or -batch is required")
	}
	if *fleetMode && *batch == "" {
		return fmt.Errorf("-fleet requires -batch")
	}
	policy, err := dataflow.ParsePolicy(*fleetPolicy)
	if err != nil {
		return err
	}

	v, err := pipeline.ParseVariant(*variant)
	if err != nil {
		return err
	}
	m, err := response.ParseMethod(*method)
	if err != nil {
		return err
	}
	backend, err := storage.ParseBackend(*storageName)
	if err != nil {
		return err
	}
	var renderer obs.Sink
	if *verbose {
		renderer = obs.NewProgressRenderer(stdout)
	}
	session, err := obsFlags.Start(renderer)
	if err != nil {
		return err
	}
	defer session.Close()
	cacheCfg, err := pipeline.ParseCacheFlag(*cacheFlag)
	if err != nil {
		return err
	}
	cacheCfg.VerifyOnHit = *cacheVerify
	cacheCfg.MaxBytes = *cacheMax

	if *cacheFsck {
		if *batch != "" {
			return fmt.Errorf("-cache-fsck works on one cache: use -dir or -cache disk:dir")
		}
		root := cacheCfg.Dir
		if root == "" {
			root = filepath.Join(*dir, pipeline.CacheDirName)
		}
		rep, err := artifact.Scrub(storage.Disk(), root)
		if err != nil {
			return err
		}
		out := struct {
			Root string `json:"root"`
			artifact.ScrubReport
			Clean bool `json:"clean"`
		}{Root: root, ScrubReport: rep, Clean: rep.Clean()}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
		return session.Close()
	}

	opts := pipeline.Options{
		Workers:      *workers,
		EventWorkers: *eventWorkers,
		Cache:        cacheCfg,
		Storage:      backend,
		Response: response.Config{
			Method:  m,
			Periods: response.LogPeriods(0.02, 20, *periods),
		},
		Observer:  session.Observer,
		Journal:   *journal,
		Resume:    *resume,
		Streaming: *streaming,
		Format:    *formatName,
	}
	if *qcGate {
		opts.QC = ingest.DefaultQC()
	}
	if *instr != "" {
		in, err := parseInstrument(*instr)
		if err != nil {
			return err
		}
		opts.Instrument = in
	}
	if *chaos < 0 || *chaos > 1 {
		return fmt.Errorf("-chaos %v out of range [0,1]", *chaos)
	}
	if *chaos > 0 {
		opts.Chaos = &faults.Config{Seed: *chaosSeed, Rate: *chaos}
	}
	opts.Retry = pipeline.RetryPolicy{MaxAttempts: *maxAttempts, JitterSeed: *chaosSeed}

	if *batch != "" {
		dirs := strings.Split(*batch, ",")
		for i := range dirs {
			dirs[i] = strings.TrimSpace(dirs[i])
		}
		if *clean {
			for _, d := range dirs {
				if err := pipeline.CleanOutputs(d); err != nil {
					return err
				}
			}
		}
		var results []pipeline.BatchResult
		var err error
		if *fleetMode {
			results, err = pipeline.RunFleet(ctx, dirs, pipeline.FleetOptions{
				Options: opts, Policy: policy, Admit: *admit,
			})
		} else {
			results, err = pipeline.RunBatch(ctx, dirs, v, opts)
		}
		for _, r := range results {
			if r.Err != nil {
				fmt.Fprintf(stdout, "%-30s FAILED: %v\n", r.Dir, r.Err)
				continue
			}
			if *fleetMode {
				fmt.Fprintf(stdout, "%-30s %3d stations in %.2f s (queued %.2f s)\n",
					r.Dir, len(r.Result.Stations), r.Latency.Seconds(), r.Wait.Seconds())
				continue
			}
			fmt.Fprintf(stdout, "%-30s %3d stations in %.2f s\n",
				r.Dir, len(r.Result.Stations), r.Result.Timings.Total.Seconds())
		}
		if *fleetMode {
			fmt.Fprintf(stdout, "fleet: %d events on one shared pool, policy %s, %d distinct stations\n",
				len(results), policy, len(pipeline.BatchStations(results)))
		} else {
			fmt.Fprintf(stdout, "batch: %d events, %d distinct stations\n",
				len(results), len(pipeline.BatchStations(results)))
		}
		rep := pipeline.BatchReport(results)
		if opts.Chaos != nil || len(rep.Quarantined) > 0 {
			fmt.Fprintf(stdout, "report: %s\n", rep)
			for _, q := range rep.Quarantined {
				fmt.Fprintf(stdout, "  quarantined %s/%s at stage %s after %d attempts: %v\n",
					q.Dir, q.Station, q.Stage, q.Attempts, q.Err)
			}
		}
		if err != nil {
			return err
		}
		if err := session.Close(); err != nil {
			return err
		}
		if rep.Degraded() {
			return errQuarantined
		}
		return nil
	}

	if *clean {
		if err := pipeline.CleanOutputs(*dir); err != nil {
			return err
		}
	}
	res, err := pipeline.Run(ctx, *dir, v, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "processed %d stations with %s in %.2f s\n",
		len(res.Stations), res.Variant, res.Timings.Total.Seconds())
	if res.Resume.Resumed {
		fmt.Fprintf(stdout, "resumed: %d journaled nodes skipped, %d quarantine verdicts replayed, %d stale scratch entries swept\n",
			res.Resume.NodesSkipped, res.Resume.QuarantinesReplayed, res.Resume.ScratchSwept)
	} else if res.Resume.ScratchSwept > 0 {
		fmt.Fprintf(stdout, "startup sweep: removed %d stale scratch entries\n", res.Resume.ScratchSwept)
	}
	if cacheCfg.Mode == pipeline.CachePersistent {
		fmt.Fprintf(stdout, "action cache: %d hits, %d misses, %d evictions, %d bytes resident\n",
			res.Cache.ActionHits, res.Cache.ActionMisses, res.Cache.ActionEvictions, res.Cache.ActionBytes)
	}
	if opts.Chaos != nil || len(res.Quarantined) > 0 {
		fmt.Fprintf(stdout, "chaos: %d faults injected, %d retries, %d records quarantined\n",
			res.FaultsInjected, res.Retries, len(res.Quarantined))
		for _, q := range res.Quarantined {
			fmt.Fprintf(stdout, "  quarantined %s at stage %s after %d attempts: %v\n",
				q.Station, q.Stage, q.Attempts, q.Err)
		}
	}
	fmt.Fprintln(stdout, "\nper-stage wall times:")
	for _, st := range pipeline.Stages {
		fmt.Fprintf(stdout, "  stage %-5s %10.3f s  (processes", st.ID, res.Timings.Stage[st.ID].Seconds())
		for _, p := range st.Processes {
			fmt.Fprintf(stdout, " #%d", p)
		}
		fmt.Fprintln(stdout, ")")
	}

	inv, err := pipeline.Inventory(*dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nproducts: %d V2, %d Fourier, %d response, %d GEM, %d plots\n",
		inv.V2, inv.Fourier, inv.Response, inv.GEM, inv.Plots)
	if err := session.Close(); err != nil {
		return err
	}
	if len(res.Quarantined) > 0 {
		return errQuarantined
	}
	return nil
}
