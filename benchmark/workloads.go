package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"accelproc/internal/ingest"
	"accelproc/internal/obs"
	"accelproc/internal/parallel"
	"accelproc/internal/pipeline"
	"accelproc/internal/response"
	"accelproc/internal/seismic"
	"accelproc/internal/synth"
)

// size holds the knobs a workload's inputs are generated at.  Each workload
// reads only the fields it needs; tests shrink them to run every code path
// in seconds.
type size struct {
	Scale   float64 // paper, ops: fraction of the Table I preset's points
	Periods int     // response-spectrum period grid (0: the method default)
	Events  int     // catalog: events in the backlog
	Records int     // catalog: records per event; longrec: records
	Points  int     // catalog, longrec: points per record
}

// workload is one closed batch the benchmark measures.  setup generates the
// inputs into b.root and runs the references; iterate runs one measured
// iteration, reporting spans to o when it is non-nil.
type workload struct {
	name string
	// headline names the series reported as the event_s metric.
	headline string
	size     size
	setup    func(b *bench) error
	iterate  func(b *bench, i int, o *obs.Observer) error
	// extras, when set, adds workload-specific values to the traced pass.
	extras func(b *bench) (map[string]metric, error)
}

// The workloads stress different layers, so a change to one layer shows on
// the workload that exercises it and leaves the others alone.
var workloads = []*workload{
	// The paper's largest event with its O(D^2) Duhamel response stage,
	// through the variants Table I compares: kernels and the parallel loops
	// dominate; codecs and I/O barely register.
	{
		name:     "paper",
		headline: "event_s.full",
		size:     size{Scale: 0.025, Periods: 32},
		setup:    setupPaper,
		iterate:  iteratePaper,
		extras:   paperExtras,
	},
	// The operator flow: a cold pipelined run that fills the persistent
	// action cache and fsyncs the journal, then a rerun after one record is
	// corrected, which restores everything else from the cache.
	{
		name:     "ops",
		headline: "event_s.pipelined",
		size:     size{Scale: 0.12},
		setup:    setupOps,
		iterate:  iterateOps,
	},
	// A backlog of small events in every input format sharing one fleet
	// worker pool: queueing for admission is about half of an event's
	// latency.  The only workload using ingest formats other than native V1,
	// and the fleet.
	{
		name:     "catalog",
		headline: "event_latency_s",
		size:     size{Events: 8, Records: 4, Points: 1200},
		setup:    setupCatalog,
		iterate:  iterateCatalog,
	},
	// A record longer than any in the paper, and than a stream edge's
	// in-flight window, through the streaming plane: the only workload whose
	// samples move between nodes as chunk streams.
	{
		name:     "longrec",
		headline: "event_s.pipelined",
		size:     size{Records: 1, Points: 36_000, Periods: 16},
		setup:    setupLongrec,
		iterate:  iterateLongrec,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// inputSet is one distinct set of input files in a work directory, with the
// digest of its seq-original reference run.
type inputSet struct {
	dir    string
	inputs map[string]bool
	ref    products
}

// bench is one workload's run: its seed, generated inputs, references and
// measured samples.
type bench struct {
	w      *workload
	sz     size
	seed   int64
	root   string
	opts   pipeline.Options
	sets   []*inputSet
	points int // input data points one iteration processes
	// correction is the ops workload's replaced record, as recorded and as
	// corrected.
	correction [2]seismic.Record

	s         series
	attempted int
	failed    int
	problems  []string

	// iterWall and iterCPU accumulate the timed calls of the current
	// iteration; verification and clean-up between calls are not charged.
	iterWall, iterCPU time.Duration
}

// series holds every sampled quantity of a run by name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// timed runs fn as one measured call, charging its wall and CPU time to the
// current iteration.
func (b *bench) timed(fn func() error) (time.Duration, error) {
	c0, t0 := cpuTime(), time.Now()
	err := fn()
	d := time.Since(t0)
	b.iterWall += d
	b.iterCPU += cpuTime() - c0
	return d, err
}

// check counts one event run and compares its products with set's
// reference; an error or any difference counts the run as failed.
func (b *bench) check(set *inputSet, res pipeline.Result, runErr error) {
	b.attempted++
	problem := ""
	if runErr != nil {
		problem = runErr.Error()
	} else if got, err := digestProducts(set.dir, set.inputs, res.Quarantined); err != nil {
		problem = err.Error()
	} else {
		problem = set.ref.diff(got)
	}
	if problem != "" {
		b.failed++
		if len(b.problems) < 5 {
			b.problems = append(b.problems, fmt.Sprintf("%s: %s", filepath.Base(set.dir), problem))
		}
	}
}

// prepare lays ev down in a new work directory under the run's root, in
// native V1 or, with emit set, in the given ingest encoding.
func (b *bench) prepare(name string, ev seismic.Event, emit *synth.EmitOptions) (*inputSet, error) {
	dir := filepath.Join(b.root, name)
	var err error
	if emit != nil {
		err = synth.EmitEvent(dir, ev, *emit)
	} else {
		err = pipeline.PrepareWorkDir(dir, ev)
	}
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := &inputSet{dir: dir, inputs: map[string]bool{}}
	for _, e := range entries {
		set.inputs[e.Name()] = true
	}
	b.points += ev.TotalDataPoints()
	return set, nil
}

// references runs seq-original on every set with both cache layers and the
// journal off, records each product digest, and cleans the directories
// again.  The runs are single-threaded and independent, so they share the
// processors, one run per processor at most.
func (b *bench) references(sets ...*inputSet) error {
	opts := b.opts
	opts.Cache = pipeline.CacheConfig{Mode: pipeline.CacheOff}
	opts.Journal = false
	opts.Streaming = false
	err := parallel.ParallelForDynamic(len(sets), 0, 1, func(i int) error {
		set := sets[i]
		res, err := pipeline.Run(context.Background(), set.dir, pipeline.SeqOriginal, opts)
		if err != nil {
			return fmt.Errorf("reference run in %s: %w", set.dir, err)
		}
		if set.ref, err = digestProducts(set.dir, set.inputs, res.Quarantined); err != nil {
			return fmt.Errorf("reference run in %s: %w", set.dir, err)
		}
		return pipeline.CleanOutputs(set.dir)
	})
	b.sets = append(b.sets, sets...)
	return err
}

// seeded shifts spec's seed by seed.  File counts and the point total stay
// the preset's; record lengths, station distances and noise are drawn anew.
// A large stride keeps neighbouring presets (the catalog's events) from
// landing on each other's seeds.
func seeded(spec synth.EventSpec, seed int64) synth.EventSpec {
	spec.Seed += seed * 1_000_003
	return spec
}

// metaWorkers runs the metadata stages' tasks one at a time.  With more,
// stage I runs process #0 beside process #1, and #1 fails now and then
// (1 run in 36 on the ops workload): it lists the work directory while #0
// writes flags.meta through a temporary file, then cannot open the
// temporary name #0 has renamed away.
const metaWorkers = 1

func periods(n int) []float64 {
	if n == 0 {
		return nil
	}
	return response.LogPeriods(0.05, 10, n)
}

// runEvent is one measured pipeline.Run in set's directory, checked against
// the reference; it returns the run's wall time.
func (b *bench) runEvent(set *inputSet, v pipeline.Variant, opts pipeline.Options) (time.Duration, pipeline.Result) {
	var res pipeline.Result
	d, err := b.timed(func() (err error) {
		res, err = pipeline.Run(context.Background(), set.dir, v, opts)
		return err
	})
	b.check(set, res, err)
	return d, res
}

func withObserver(opts pipeline.Options, o *obs.Observer) pipeline.Options {
	opts.Observer = o
	return opts
}

// paper: the three variants the paper's Table I compares, in an order that
// rotates every iteration so slow phases of the host hit each alike.

var paperVariants = []pipeline.Variant{pipeline.SeqOriginal, pipeline.FullParallel, pipeline.Pipelined}

func variantName(v pipeline.Variant) string {
	switch v {
	case pipeline.SeqOriginal:
		return "seq-original"
	case pipeline.FullParallel:
		return "full"
	}
	return v.String()
}

func setupPaper(b *bench) error {
	b.opts = pipeline.Options{
		MetaWorkers: metaWorkers,
		Response:    response.Config{Method: response.Duhamel, Periods: periods(b.sz.Periods)},
	}
	ev, err := synth.Event(seeded(synth.PaperEvents()[5].Scale(b.sz.Scale), b.seed))
	if err != nil {
		return err
	}
	set, err := b.prepare("Jul-31-2019", ev, nil)
	if err != nil {
		return err
	}
	return b.references(set)
}

func iteratePaper(b *bench, i int, o *obs.Observer) error {
	set := b.sets[0]
	for k := range paperVariants {
		v := paperVariants[(i+k)%len(paperVariants)]
		if err := pipeline.CleanOutputs(set.dir); err != nil {
			return err
		}
		d, _ := b.runEvent(set, v, withObserver(b.opts, o))
		b.s.add("event_s."+variantName(v), d.Seconds())
	}
	return nil
}

// paperExtras reports the real-core speedups over seq-original and checks
// the simulated platform against them: full and pipelined on 2 and 8
// simulated processors, with the 2-processor makespan over the real one.
func paperExtras(b *bench) (map[string]metric, error) {
	set := b.sets[0]
	seq := median(b.s["event_s.seq-original"])
	m := map[string]metric{}
	for _, v := range paperVariants[1:] {
		name := variantName(v)
		onCores := median(b.s["event_s."+name])
		m["parallel.speedup."+name] = metric{seq / onCores, "ratio"}
		for _, p := range []int{2, 8} {
			if err := pipeline.CleanOutputs(set.dir); err != nil {
				return nil, err
			}
			opts := b.opts
			opts.SimProcessors = p
			res, err := pipeline.Run(context.Background(), set.dir, v, opts)
			b.check(set, res, err)
			sim := res.Timings.Total.Seconds()
			m[fmt.Sprintf("simsched.sim%d_s.%s", p, name)] = metric{sim, "s"}
			if p == 2 {
				m["simsched.sim2_over_real."+name] = metric{sim / onCores, "ratio"}
			}
		}
	}
	return m, nil
}

// ops: sets[0] is the event as recorded, sets[1] the event after the
// middle station's record is replaced by a corrected one.  The cache starts
// empty every iteration, so the same correction reruns the same subgraph
// each time: one station's nodes plus the event-wide ones.

func setupOps(b *bench) error {
	b.opts = pipeline.Options{
		MetaWorkers: metaWorkers,
		Response:    response.Config{Method: response.NigamJennings, Periods: periods(b.sz.Periods)},
		Journal:     true,
		Cache:       pipeline.CacheConfig{Mode: pipeline.CachePersistent},
	}
	spec := seeded(synth.PaperEvents()[2].Scale(b.sz.Scale), b.seed)
	ev, err := synth.Event(spec)
	if err != nil {
		return err
	}
	base, err := b.prepare("Jul-10-2019", ev, nil)
	if err != nil {
		return err
	}
	mid := len(ev.Records) / 2
	rec := ev.Records[mid]
	fixed, err := synth.Record(synth.Params{
		Station:    rec.Station,
		Seed:       spec.Seed + 1,
		DT:         rec.Accel[0].DT,
		Samples:    rec.Samples(),
		Magnitude:  spec.Magnitude,
		Distance:   40,
		NoiseFloor: 0.02,
	})
	if err != nil {
		return err
	}
	b.correction = [2]seismic.Record{rec, fixed}
	// The corrected event's reference runs in a directory of its own,
	// beside the recorded one's; its reruns happen in base's directory.
	corrected := ev
	corrected.Records = slices.Clone(ev.Records)
	corrected.Records[mid] = fixed
	fixedSet := &inputSet{dir: filepath.Join(b.root, "corrected"), inputs: base.inputs}
	if err := pipeline.PrepareWorkDir(fixedSet.dir, corrected); err != nil {
		return err
	}
	if err := b.references(base, fixedSet); err != nil {
		return err
	}
	if err := os.RemoveAll(fixedSet.dir); err != nil {
		return err
	}
	fixedSet.dir = base.dir
	return nil
}

func replaceRecord(dir string, rec seismic.Record) error {
	return pipeline.PrepareWorkDir(dir, seismic.Event{Name: "correction", Records: []seismic.Record{rec}})
}

func iterateOps(b *bench, _ int, o *obs.Observer) error {
	base := b.sets[0]
	if err := pipeline.CleanOutputs(base.dir); err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(base.dir, pipeline.CacheDirName)); err != nil {
		return err
	}
	opts := withObserver(b.opts, o)
	d, _ := b.runEvent(base, pipeline.Pipelined, opts)
	b.s.add("event_s.pipelined", d.Seconds())

	if err := replaceRecord(base.dir, b.correction[1]); err != nil {
		return err
	}
	d, res := b.runEvent(b.sets[1], pipeline.Pipelined, opts)
	b.s.add("rerun_s.pipelined", d.Seconds())
	b.s.add("artifact.action_hits", float64(res.Cache.ActionHits))
	b.s.add("artifact.action_misses", float64(res.Cache.ActionMisses))
	return replaceRecord(base.dir, b.correction[0])
}

// catalog: formats rotate event by event, and one event's records are
// encoded in a rotated sensor frame the ingest plane must rotate back.
// No event carries a QC defect: when the gate rejects a record in a fleet
// run, the metadata lists of process #5 include or omit that station
// depending on whether #5 ran before the reject, so the products would not
// be reproducible.

const catalogRotated = 5

func setupCatalog(b *bench) error {
	b.opts = pipeline.Options{
		MetaWorkers: metaWorkers,
		Response:    response.Config{Method: response.NigamJennings, Periods: periods(b.sz.Periods)},
		Journal:     true,
		QC:          ingest.DefaultQC(),
	}
	formats := ingest.Names()
	var sets []*inputSet
	for e := 0; e < b.sz.Events; e++ {
		spec := synth.EventSpec{
			Name:        fmt.Sprintf("ev%02d", e),
			Files:       b.sz.Records,
			TotalPoints: b.sz.Records * b.sz.Points,
			Magnitude:   5.0,
			Seed:        int64(5000 + e),
		}
		ev, err := synth.Event(seeded(spec, b.seed))
		if err != nil {
			return err
		}
		emit := synth.EmitOptions{Format: formats[e%len(formats)], Seed: int64(e) + 1}
		if e == catalogRotated%b.sz.Events {
			emit.Corrupt = "azimuth"
		}
		set, err := b.prepare(spec.Name, ev, &emit)
		if err != nil {
			return err
		}
		sets = append(sets, set)
	}
	return b.references(sets...)
}

func iterateCatalog(b *bench, _ int, o *obs.Observer) error {
	dirs := make([]string, len(b.sets))
	for i, set := range b.sets {
		if err := pipeline.CleanOutputs(set.dir); err != nil {
			return err
		}
		dirs[i] = set.dir
	}
	var results []pipeline.BatchResult
	d, err := b.timed(func() (err error) {
		results, err = pipeline.RunFleet(context.Background(), dirs, pipeline.FleetOptions{Options: withObserver(b.opts, o)})
		return err
	})
	if len(results) != len(b.sets) {
		return fmt.Errorf("fleet returned %d results for %d events: %v", len(results), len(b.sets), err)
	}
	for i, r := range results {
		b.check(b.sets[i], r.Result, r.Err)
		b.s.add("event_latency_s", (r.Wait + r.Latency).Seconds())
		b.s.add("fleet.queue_wait_s", r.Wait.Seconds())
		b.s.add("fleet.service_s", r.Latency.Seconds())
	}
	b.s.add("throughput_pts_s", float64(b.points)/d.Seconds())
	return nil
}

// longrec: the streamed pipelined run of a long record.

func setupLongrec(b *bench) error {
	b.opts = pipeline.Options{
		MetaWorkers: metaWorkers,
		Response:    response.Config{Method: response.NigamJennings, Periods: periods(b.sz.Periods)},
		Journal:     true,
		Streaming:   true,
	}
	spec := synth.EventSpec{Name: "longrec", Files: b.sz.Records, NPTS: b.sz.Points, Magnitude: 6.5, Seed: 1_000_000}
	ev, err := synth.Event(seeded(spec, b.seed))
	if err != nil {
		return err
	}
	set, err := b.prepare("longrec", ev, nil)
	if err != nil {
		return err
	}
	return b.references(set)
}

func iterateLongrec(b *bench, _ int, o *obs.Observer) error {
	set := b.sets[0]
	if err := pipeline.CleanOutputs(set.dir); err != nil {
		return err
	}
	d, _ := b.runEvent(set, pipeline.Pipelined, withObserver(b.opts, o))
	b.s.add("event_s.pipelined", d.Seconds())
	return nil
}
