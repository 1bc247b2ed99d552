// Package pipeline implements the paper's contribution: the accelerographic
// records processing chain of El Salvador's Observatory of Natural Threats,
// in its four successive incarnations —
//
//	SeqOriginal   the original 20-process sequential chain (paper §III)
//	SeqOptimized  17 processes after dropping the redundant #6, #12, #14 (§IV)
//	PartialParallel  5 of 11 stages parallelized: task parallelism for the
//	                 lightweight metadata stages, parallel loops for the
//	                 C++-side stages (§V)
//	FullParallel  10 of 11 stages parallelized, adding Fortran-side loops
//	                 and concurrent execution in temporary folders (§VI)
//
// Processes communicate exclusively through files in a work directory, as
// the legacy chain does: V1 inputs are read from it, and every intermediate
// product (per-component V1, V2, F, R, GEM, metadata, PostScript plots) is
// written back to it.  This preserves the heavy-I/O character of the
// original system that the paper's speedups are measured against.
package pipeline

import (
	"fmt"
	"strings"
	"time"

	"accelproc/internal/dsp"
	"accelproc/internal/faults"
	"accelproc/internal/fourier"
	"accelproc/internal/ingest"
	"accelproc/internal/obs"
	"accelproc/internal/response"
	"accelproc/internal/storage"
)

// Variant selects which of the paper's four implementations to run.
type Variant int

const (
	// SeqOriginal is the original 20-process sequential chain.
	SeqOriginal Variant = iota
	// SeqOptimized drops the redundant processes #6, #12, #14.
	SeqOptimized
	// PartialParallel parallelizes stages I-II, VI, X, and XI.
	PartialParallel
	// FullParallel parallelizes every stage except VII (process #11).
	FullParallel
	// Pipelined replaces the staged schedule with a record-level task DAG
	// derived from the declared process artifacts: no inter-stage barriers,
	// each record flows through the chain as its own dependencies resolve.
	Pipelined
)

// Variants lists the paper's four implementations in order, plus the
// barrier-free dataflow variant this implementation adds.
var Variants = [5]Variant{SeqOriginal, SeqOptimized, PartialParallel, FullParallel, Pipelined}

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case SeqOriginal:
		return "sequential-original"
	case SeqOptimized:
		return "sequential-optimized"
	case PartialParallel:
		return "partially-parallelized"
	case FullParallel:
		return "fully-parallelized"
	case Pipelined:
		return "pipelined"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ProcessID numbers the 20 processes of the original chain (paper Fig. 5).
type ProcessID int

// The 20 processes.
const (
	PInitFlags          ProcessID = 0  // initialize flags
	PGatherInputs       ProcessID = 1  // gather input data files
	PInitFilterParams   ProcessID = 2  // initialize filter parameters
	PSeparateComponents ProcessID = 3  // separate data by components
	PDefaultFilter      ProcessID = 4  // apply default filters
	PInitMetadata       ProcessID = 5  // initialize metadata files
	PPlotUncorrected    ProcessID = 6  // plot uncorrected signals (redundant)
	PFourier            ProcessID = 7  // apply Fourier transformation
	PInitFourierGraph   ProcessID = 8  // initialize filelist metadata
	PPlotFourier        ProcessID = 9  // plot Fourier spectrum
	PPickCorners        ProcessID = 10 // obtain FSL & FPL values
	PInitFlags2         ProcessID = 11 // initialize flags (again)
	PSeparateComps2     ProcessID = 12 // separate data by components (redundant)
	PCorrectedFilter    ProcessID = 13 // obtain corrected signals
	PInitMetadata2      ProcessID = 14 // initialize metadata files (redundant)
	PPlotAccel          ProcessID = 15 // plot accelerograph
	PResponseSpectrum   ProcessID = 16 // response spectrum calculation
	PInitResponseGraph  ProcessID = 17 // initialize filelist metadata
	PPlotResponse       ProcessID = 18 // plot response spectrum
	PGenerateGEM        ProcessID = 19 // generate GEM files
)

// NumProcesses is the process count of the original chain.
const NumProcesses = 20

// Kind tells how the legacy chain implements a process.
type Kind int

const (
	// KindCPP marks a function embedded in the C++ driver.
	KindCPP Kind = iota
	// KindFortran marks a standalone Fortran program.
	KindFortran
)

// Cost classifies the dominant resource use of a process (the legend of the
// paper's Figures 5-10).
type Cost int

const (
	// CostLight marks trivial bookkeeping processes.
	CostLight Cost = iota
	// CostHeavyIO marks processes dominated by file reading/writing.
	CostHeavyIO
	// CostHeavyFLOPS marks processes dominated by numeric work.
	CostHeavyFLOPS
	// CostPlotting marks plot-generation processes.
	CostPlotting
)

// ProcessInfo is the static description of one process: the paper's Figure
// 9 row, with declared input and output artifacts.
type ProcessInfo struct {
	ID      ProcessID
	Name    string
	Kind    Kind
	Cost    Cost
	Inputs  []string // artifact names consumed
	Outputs []string // artifact names produced
	// Redundant marks the processes dropped by the sequential optimization
	// (#6, #12, #14).
	Redundant bool
}

// Processes describes all 20 processes with their dependencies, mirroring
// the inputs/outputs columns of the paper's Figures 5 and 9.
var Processes = [NumProcesses]ProcessInfo{
	{ID: PInitFlags, Name: "initialize flags", Kind: KindCPP, Cost: CostLight,
		Outputs: []string{"flags"}},
	{ID: PGatherInputs, Name: "gather input data files", Kind: KindCPP, Cost: CostHeavyIO,
		Inputs: []string{"<s>.v1"}, Outputs: []string{"v1list"}},
	{ID: PInitFilterParams, Name: "initialize filter parameters", Kind: KindFortran, Cost: CostLight,
		Outputs: []string{"filter-params"}},
	{ID: PSeparateComponents, Name: "separate data by components", Kind: KindFortran, Cost: CostHeavyIO,
		Inputs: []string{"v1list", "<s>.v1"}, Outputs: []string{"<s><c>.v1"}},
	{ID: PDefaultFilter, Name: "apply default filters", Kind: KindFortran, Cost: CostHeavyFLOPS,
		Inputs: []string{"filter-params", "<s><c>.v1"}, Outputs: []string{"<s><c>.v2", "max-values"}},
	{ID: PInitMetadata, Name: "initialize metadata files", Kind: KindFortran, Cost: CostLight,
		Inputs: []string{"v1list"}, Outputs: []string{"acc-graph", "fourier", "response"}},
	{ID: PPlotUncorrected, Name: "plot uncorrected signals", Kind: KindCPP, Cost: CostPlotting,
		Inputs: []string{"acc-graph", "<s><c>.v1"}, Outputs: []string{"<s>.ps"}, Redundant: true},
	{ID: PFourier, Name: "apply Fourier transformation", Kind: KindFortran, Cost: CostHeavyFLOPS,
		Inputs: []string{"fourier", "<s><c>.v2"}, Outputs: []string{"<s><c>.f"}},
	{ID: PInitFourierGraph, Name: "initialize Fourier filelist metadata", Kind: KindFortran, Cost: CostLight,
		Inputs: []string{"v1list"}, Outputs: []string{"fourier-graph"}},
	{ID: PPlotFourier, Name: "plot Fourier spectrum", Kind: KindFortran, Cost: CostPlotting,
		Inputs: []string{"fourier-graph", "<s><c>.f"}, Outputs: []string{"<s>f.ps"}},
	{ID: PPickCorners, Name: "obtain FSL & FPL values", Kind: KindCPP, Cost: CostHeavyFLOPS,
		Inputs: []string{"fourier-graph", "<s><c>.f"}, Outputs: []string{"filter-params"}},
	{ID: PInitFlags2, Name: "initialize flags", Kind: KindCPP, Cost: CostLight,
		Outputs: []string{"flags"}},
	{ID: PSeparateComps2, Name: "separate data by components", Kind: KindFortran, Cost: CostHeavyIO,
		Inputs: []string{"v1list", "<s>.v1"}, Outputs: []string{"<s><c>.v1"}, Redundant: true},
	{ID: PCorrectedFilter, Name: "obtain corrected signals", Kind: KindFortran, Cost: CostHeavyFLOPS,
		Inputs: []string{"filter-params", "<s><c>.v1"}, Outputs: []string{"<s><c>.v2", "max-values"}},
	{ID: PInitMetadata2, Name: "initialize metadata files", Kind: KindFortran, Cost: CostLight,
		Inputs: []string{"v1list"}, Outputs: []string{"acc-graph", "fourier", "response"}, Redundant: true},
	{ID: PPlotAccel, Name: "plot accelerograph", Kind: KindFortran, Cost: CostPlotting,
		Inputs: []string{"acc-graph", "<s><c>.v2"}, Outputs: []string{"<s>.ps"}},
	{ID: PResponseSpectrum, Name: "response spectrum calculation", Kind: KindFortran, Cost: CostHeavyFLOPS,
		Inputs: []string{"response", "<s><c>.v2"}, Outputs: []string{"<s><c>.r"}},
	{ID: PInitResponseGraph, Name: "initialize response filelist metadata", Kind: KindFortran, Cost: CostLight,
		Inputs: []string{"v1list"}, Outputs: []string{"response-graph"}},
	{ID: PPlotResponse, Name: "plot response spectrum", Kind: KindFortran, Cost: CostPlotting,
		Inputs: []string{"response-graph", "<s><c>.r"}, Outputs: []string{"<s>r.ps"}},
	{ID: PGenerateGEM, Name: "generate GEM files", Kind: KindCPP, Cost: CostHeavyIO,
		Inputs: []string{"response", "<s><c>.v2", "<s><c>.r"}, Outputs: []string{"<s><c>GEM<2|R><A|V|D>"}},
}

// StageID numbers the 11 stages of the reordered schedule (paper Fig. 9).
type StageID int

// The 11 stages.
const (
	StageI StageID = iota + 1
	StageII
	StageIII
	StageIV
	StageV
	StageVI
	StageVII
	StageVIII
	StageIX
	StageX
	StageXI
)

// NumStages is the stage count of the reordered schedule.
const NumStages = 11

// String returns the Roman numeral of the stage.
func (s StageID) String() string {
	numerals := [...]string{"", "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI"}
	if s >= 1 && int(s) < len(numerals) {
		return numerals[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Strategy tells how a stage is parallelized (right-hand columns of the
// paper's Figure 9).
type Strategy int

const (
	// StratSequential leaves the stage sequential.
	StratSequential Strategy = iota
	// StratTask runs the stage's processes as concurrent tasks
	// (omp task / taskwait).
	StratTask
	// StratLoop parallelizes the loop inside the stage's single process
	// (omp parallel for / omp do).
	StratLoop
	// StratTempFolder runs concurrent instances of an unmodifiable program
	// inside per-instance temporary folders with data staged in and out.
	StratTempFolder
)

// StageInfo describes one stage of the reordered schedule and the strategy
// each parallel variant applies to it.
type StageInfo struct {
	ID        StageID
	Processes []ProcessID
	// Partial is the strategy used by the partially parallelized version;
	// StratSequential if the stage is not parallelized there.
	Partial Strategy
	// Full is the strategy used by the fully parallelized version.
	Full Strategy
}

// Stages is the reordered 11-stage schedule with per-variant strategies
// (paper Fig. 9; the Partial column parallelizes 5 stages, the Full column
// 10 — every stage except VII).
var Stages = [NumStages]StageInfo{
	{ID: StageI, Processes: []ProcessID{PInitFlags, PGatherInputs}, Partial: StratTask, Full: StratTask},
	{ID: StageII, Processes: []ProcessID{PInitFilterParams, PInitMetadata, PInitFourierGraph, PInitResponseGraph}, Partial: StratTask, Full: StratTask},
	{ID: StageIII, Processes: []ProcessID{PSeparateComponents}, Partial: StratSequential, Full: StratLoop},
	{ID: StageIV, Processes: []ProcessID{PDefaultFilter}, Partial: StratSequential, Full: StratTempFolder},
	{ID: StageV, Processes: []ProcessID{PFourier}, Partial: StratSequential, Full: StratTempFolder},
	{ID: StageVI, Processes: []ProcessID{PPickCorners}, Partial: StratLoop, Full: StratLoop},
	{ID: StageVII, Processes: []ProcessID{PInitFlags2}, Partial: StratSequential, Full: StratSequential},
	{ID: StageVIII, Processes: []ProcessID{PCorrectedFilter}, Partial: StratSequential, Full: StratTempFolder},
	{ID: StageIX, Processes: []ProcessID{PResponseSpectrum}, Partial: StratSequential, Full: StratLoop},
	{ID: StageX, Processes: []ProcessID{PGenerateGEM}, Partial: StratLoop, Full: StratLoop},
	{ID: StageXI, Processes: []ProcessID{PPlotFourier, PPlotAccel, PPlotResponse}, Partial: StratTask, Full: StratTask},
}

// ParseVariant maps a command-line spelling to a Variant.  It accepts the
// paper's full names (the String values) plus the short forms the CLIs
// document: seq-original, seq-optimized, partial, full, pipelined.
func ParseVariant(name string) (Variant, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "seq-original", "seq", "original", "sequential-original":
		return SeqOriginal, nil
	case "seq-optimized", "opt", "optimized", "sequential-optimized":
		return SeqOptimized, nil
	case "partial", "par", "partially-parallelized":
		return PartialParallel, nil
	case "full", "parallel", "fully-parallelized":
		return FullParallel, nil
	case "pipelined", "pipe", "dataflow":
		return Pipelined, nil
	default:
		return 0, fmt.Errorf("pipeline: unknown variant %q (want seq-original, seq-optimized, partial, full, or pipelined)", name)
	}
}

// StageOf returns the stage that contains the given process in the
// reordered schedule, or 0 if the process was optimized away (#6, #12, #14
// appear in no stage).
func StageOf(p ProcessID) StageID {
	for _, st := range Stages {
		for _, q := range st.Processes {
			if q == p {
				return st.ID
			}
		}
	}
	return 0
}

// Options configures a pipeline run.
type Options struct {
	// Workers bounds the number of concurrent goroutines in parallel
	// stages; 0 means all available processors.  Sequential variants
	// ignore it.
	Workers int
	// MetaWorkers bounds the task team for the lightweight metadata stages
	// I, II, and XI; the paper pins this region to 2-4 processors.
	// Zero selects 4.
	MetaWorkers int
	// Response configures the stage IX workload (method, damping, period
	// grid).  The zero value selects the legacy Duhamel method on the
	// default period grid.
	Response response.Config
	// Pick configures the FPL/FSL inflection search of process #10.
	Pick fourier.PickConfig
	// TaperFraction is the cosine-taper fraction applied before filtering;
	// zero selects 0.05.
	TaperFraction float64
	// Format forces every input record to decode as the named ingest
	// format (a registry key of internal/ingest: v1, v1a, mseed, csv).
	// Empty resolves each file individually — magic bytes first, file
	// extension second (see ingest.Detect).
	Format string
	// QC configures the record sanity gate the decode step (process #3)
	// runs on every input before demultiplexing (see ingest.QCConfig).
	// The zero value keeps only the structural checks (missing component,
	// length mismatch, disagreeing sample intervals) that mark a record
	// unprocessable; ingest.DefaultQC() adds the threshold checks
	// (minimum duration, clipping, telemetry gaps).  Rejected records are
	// quarantined with their typed reason, and the survivors continue.
	QC ingest.QCConfig
	// Instrument, when non-nil, enables instrument-response deconvolution:
	// the correction processes (#4 and #13) remove this transducer's
	// transfer function from the raw signal before band-pass filtering,
	// as chains handling analog (SMA-1 style) records must.
	Instrument *dsp.Instrument
	// KeepTempDirs disables removal of the per-instance temporary folders
	// of the full-parallel variant, for debugging.
	KeepTempDirs bool

	// NoTempFolders is the ablation of the paper's temporary-folder
	// protocol: the fully parallelized variant runs stages IV, V, and VIII
	// as direct parallel loops over signals (possible here because the
	// filter and Fourier programs are native Go, not unmodifiable Fortran
	// binaries), quantifying what the staging protocol costs.
	NoTempFolders bool

	// Streaming enables the streaming execution plane of the Pipelined
	// variant: the three scan-order hot handoffs (#3→#4 raw components,
	// #4→#7 and #13→#16 corrected acceleration) become stream edges — the
	// consumer node is dispatched when its producer starts, and the record
	// flows between them as pooled fixed-size chunks (see internal/stream)
	// instead of a whole decoded artifact.  Every NPTS-scaled output is
	// written incrementally through Workspace.Create, so StorageBytesPeak
	// stays flat as records grow; outputs are byte-identical to the
	// materialized execution on both storage backends.  Implies
	// NoTempFolders (streamed stages run direct bodies), requires the
	// Pipelined variant, and is rejected under Chaos (fault injection must
	// exercise the staged protocol) and with the persistent action cache
	// (node outputs are produced incrementally, not read back as whole
	// files for a Put); see Validate.
	Streaming bool

	// Storage selects the workspace backend the inter-stage file protocol
	// runs on (see internal/storage): BackendFS (the default, also selected
	// by the zero value) keeps every intermediate product on the real
	// filesystem, byte-identical to the legacy chain; BackendMem holds
	// intermediate file bytes in memory over a real directory tree and
	// materializes final event outputs (and quarantined scratch) to disk on
	// demand.  Outputs are byte-identical across backends.
	Storage storage.Backend

	// Cache configures the artifact caching layers (see CacheConfig): off,
	// memory (the zero value — the in-process memo layer, today's
	// behavior), or persistent (memo plus the content-addressed action
	// cache that survives restarts).  On-disk outputs are byte-identical in
	// every mode; only redundant decode/copy/recompute work changes.
	Cache CacheConfig

	// Journal maintains a write-ahead run journal under <dir>/.smrun: one
	// fsync'd record per durability point (run start, each completed
	// per-record dataflow node, each quarantine verdict, run finish), so a
	// run killed mid-event can be resumed.  Journaled runs also sweep
	// age-stale scratch dirs and temp files left by crashed runs at startup.
	// Best-effort: a journal that cannot be written never fails the run.
	Journal bool
	// Resume replays a surviving journal before running: quarantine
	// verdicts are restored, journaled nodes whose outputs still validate
	// are handed to the dataflow scheduler as already complete (so only
	// unfinished subgraphs re-execute), and all leftover scratch is swept.
	// Implies Journal.  A journal from a different variant or parameter set
	// is ignored and the run starts fresh.
	Resume bool

	// SimProcessors switches the parallel variants to the simulated
	// platform: every parallel construct executes its real work serially,
	// measures genuine per-task costs, and charges the wall time a
	// SimProcessors-core machine would need under list scheduling with
	// contention (see internal/simsched).  Zero runs real goroutines —
	// the right choice on a host with as many cores as the experiment
	// assumes; the simulation is the substitute for the paper's 8-core
	// platform when the host has fewer.
	SimProcessors int

	// EventWorkers bounds the number of event pipelines RunBatch executes
	// concurrently; 0 means all available processors.  Run ignores it.
	EventWorkers int

	// Chaos, when non-nil, interposes a deterministic fault injector on the
	// temp-folder protocol's file operations and simulated-binary
	// executions (see internal/faults).  Each run builds its own injector
	// from this config, so every event in a batch replays the same seeded
	// fault sequence.  Chaos only reaches the staged protocol; combine it
	// with the full-parallel variant, not the NoTempFolders ablation.
	Chaos *faults.Config
	// Retry governs how staging failures are retried and when a record is
	// quarantined; the zero value selects the documented defaults.
	Retry RetryPolicy

	// Observer, when non-nil, receives the run's span tree (run → stage →
	// process → task) and metrics: per-process durations, temp-folder
	// staging bytes, worker occupancy, queue waits.  It replaces the old
	// Progress callback — attach an obs.ProgressRenderer sink for the
	// same per-process console output.
	Observer *obs.Observer
	// ParentSpan, when non-nil, nests the run's span under an enclosing
	// span (a batch, an experiment trial) instead of opening a new root.
	// It must belong to Observer.
	ParentSpan *obs.Span
}

func (o Options) withDefaults() Options {
	if o.MetaWorkers == 0 {
		o.MetaWorkers = 4
	}
	if o.Resume {
		o.Journal = true
	}
	if o.Streaming {
		// Streamed stages run direct bodies: chunks flow producer→consumer,
		// not through per-instance scratch folders.
		o.NoTempFolders = true
	}
	if o.TaperFraction == 0 {
		o.TaperFraction = 0.05
	}
	return o
}

// Timings collects per-process and per-stage wall times of one run.
type Timings struct {
	Process [NumProcesses]time.Duration
	Stage   [NumStages + 1]time.Duration // indexed by StageID (1-based)
	Total   time.Duration
}

// Result reports one pipeline run.
type Result struct {
	Variant  Variant
	Stations []string // surviving station codes, sorted
	Timings  Timings

	// Quarantined lists the records the retry engine gave up on, sorted by
	// station; empty on a fully healthy run.
	Quarantined []RecordOutcome
	// Retries counts the staging operations that were re-attempted.
	Retries int64
	// FaultsInjected counts the faults the chaos layer injected (0 when
	// Options.Chaos is nil).
	FaultsInjected int64
	// StorageBytesPeak is the peak bytes the storage backend held resident
	// in memory during the run (0 on the fs backend).
	StorageBytesPeak int64
	// Cache reports both cache layers' hit/miss/eviction activity and the
	// action cache's resident bytes.
	Cache CacheStats
	// Resume reports the write-ahead journal's contribution: whether a
	// prior journal was adopted, how many nodes it replayed, and how much
	// stale scratch the startup sweep removed.  Zero when journaling is off.
	Resume ResumeStats
}
