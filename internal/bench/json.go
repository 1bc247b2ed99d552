package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"accelproc/internal/pipeline"
	"accelproc/internal/storage"
)

// This file renders experiment results as a machine-readable JSON report,
// the artifact behind the committed BENCH_<label>.json baselines: the same
// numbers as Table I and Figures 11-13, plus enough host and configuration
// context to interpret them later (see EXPERIMENTS.md "Machine-readable
// reports").

// HostInfo records the platform a report's measurements ran on.
type HostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Storage is the backend the runs used ("fs" or "mem"); on "mem",
	// StorageBytesResidentPeak is the largest in-memory residency any
	// measured run reached, in bytes.
	Storage                  string `json:"storage"`
	StorageBytesResidentPeak int64  `json:"storage_bytes_resident_peak,omitempty"`
}

// VariantReport is one variant's measurement on one event.
type VariantReport struct {
	Seconds float64 `json:"seconds"`
	// Stages maps the Roman stage numeral to the stage's charged seconds.
	Stages map[string]float64 `json:"stages,omitempty"`
}

// EventReport is one event processed by every measured variant, with the
// derived headline ratios (zero when an endpoint variant was not measured).
type EventReport struct {
	Event    string                   `json:"event"`
	Files    int                      `json:"files"`
	Points   int                      `json:"points"`
	Variants map[string]VariantReport `json:"variants"`
	// SpeedupFull is the paper's headline metric: SeqOriginal over
	// FullParallel.
	SpeedupFull float64 `json:"speedup_full,omitempty"`
	// SpeedupPipelined is SeqOriginal over the dataflow variant.
	SpeedupPipelined float64 `json:"speedup_pipelined,omitempty"`
	// PipelinedVsFull is FullParallel over Pipelined: above 1.0 the
	// barrier-free schedule beats the staged one.
	PipelinedVsFull float64 `json:"pipelined_vs_full,omitempty"`
	// PointsPerSecond is the fully-parallelized throughput.
	PointsPerSecond float64 `json:"fullpar_points_per_second,omitempty"`
}

// CacheReport records the caching mode the measured runs used and their
// summed cache counters (all events, repetitions, and variants).
type CacheReport struct {
	Mode            string `json:"mode"`
	MemoHits        int64  `json:"memo_hits,omitempty"`
	MemoMisses      int64  `json:"memo_misses,omitempty"`
	MemoPeakBytes   int64  `json:"memo_peak_bytes,omitempty"`
	ActionHits      int64  `json:"action_hits,omitempty"`
	ActionMisses    int64  `json:"action_misses,omitempty"`
	ActionEvictions int64  `json:"action_evictions,omitempty"`
}

// Report is the machine-readable form of a benchtables run.
type Report struct {
	Label         string      `json:"label"`
	CreatedAt     time.Time   `json:"created_at"`
	Host          HostInfo    `json:"host"`
	Scale         float64     `json:"scale"`
	Workers       int         `json:"workers"`
	SimProcessors int         `json:"sim_processors"` // 0 = real goroutine parallelism
	Repeat        int         `json:"repeat"`
	Method        string      `json:"method"`
	Periods       int         `json:"periods"`
	Cache         CacheReport `json:"cache"`
	// Streaming records whether measured Pipelined runs used the streaming
	// execution plane.
	Streaming bool          `json:"streaming,omitempty"`
	Events    []EventReport `json:"events"`
	// Fleet holds the multi-event saturation experiment, when it ran.
	Fleet *FleetReport `json:"fleet,omitempty"`
	// Stream holds the streaming-plane memory ablation, when it ran.
	Stream *StreamReport `json:"stream,omitempty"`
	// Ingest holds the per-format decode microbenchmark, when it ran.
	Ingest *IngestReport `json:"ingest,omitempty"`
	Checks []string      `json:"checks,omitempty"`
}

// FleetPolicyReport is one scheduling discipline of the saturation
// experiment in machine-readable form.
type FleetPolicyReport struct {
	Policy          string  `json:"policy"`
	Admit           int     `json:"admit"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	P50Seconds      float64 `json:"p50_seconds"`
	P99Seconds      float64 `json:"p99_seconds"`
	PointsPerSecond float64 `json:"points_per_second"`
}

// FleetReport is the machine-readable multi-event saturation experiment
// (see RunFleetBench).
type FleetReport struct {
	Events             int                 `json:"events"`
	Files              int                 `json:"files"`
	Points             int                 `json:"points"`
	Workers            int                 `json:"workers"`
	Simulated          bool                `json:"simulated"`
	SingleEventSeconds float64             `json:"single_event_seconds"`
	Sequential         FleetPolicyReport   `json:"sequential"`
	Policies           []FleetPolicyReport `json:"policies"`
}

func fleetPolicyReport(p FleetPolicyResult) FleetPolicyReport {
	return FleetPolicyReport{
		Policy:          p.Policy,
		Admit:           p.Admit,
		MakespanSeconds: p.Makespan.Seconds(),
		P50Seconds:      p.P50.Seconds(),
		P99Seconds:      p.P99.Seconds(),
		PointsPerSecond: p.PointsPerSecond,
	}
}

// AttachFleet adds a saturation run to the report: the structured Fleet
// block, plus one synthetic event row whose variants are the per-discipline
// queue makespans ("batch-sequential", "fleet-<policy>"), so the existing
// -compare gate diffs fleet baselines with no special casing.
func (r *Report) AttachFleet(fr FleetResult) {
	rep := &FleetReport{
		Events:             fr.Queue,
		Files:              fr.Files,
		Points:             fr.Points,
		Workers:            fr.Workers,
		Simulated:          fr.Simulated,
		SingleEventSeconds: fr.SingleEvent.Seconds(),
		Sequential:         fleetPolicyReport(fr.Sequential),
	}
	for _, p := range fr.Policies {
		rep.Policies = append(rep.Policies, fleetPolicyReport(p))
	}
	r.Fleet = rep
	er := EventReport{
		Event:  fmt.Sprintf("fleet-%dev", fr.Queue),
		Files:  fr.Files,
		Points: fr.Points,
		Variants: map[string]VariantReport{
			"batch-sequential": {Seconds: fr.Sequential.Makespan.Seconds()},
		},
	}
	for _, p := range fr.Policies {
		er.Variants["fleet-"+p.Policy] = VariantReport{Seconds: p.Makespan.Seconds()}
	}
	r.Events = append(r.Events, er)
}

// StreamRowReport is one NPTS point of the streaming memory ablation in
// machine-readable form.
type StreamRowReport struct {
	NPTS                int     `json:"npts"`
	Points              int     `json:"points"`
	MaterializedSeconds float64 `json:"materialized_seconds"`
	MaterializedPeak    int64   `json:"materialized_peak_bytes"`
	StreamingSeconds    float64 `json:"streaming_seconds"`
	StreamingPeak       int64   `json:"streaming_peak_bytes"`
	Identical           bool    `json:"identical"`
}

// StreamReport is the machine-readable streaming memory ablation (see
// RunStreamBench).
type StreamReport struct {
	Files       int               `json:"files"`
	BudgetBytes int64             `json:"budget_bytes"`
	Rows        []StreamRowReport `json:"rows"`
}

// AttachStream adds a streaming memory-ablation run to the report: the
// structured Stream block, plus one synthetic event row per NPTS whose
// variants are the materialized and streaming totals, so the existing
// -compare gate diffs streaming baselines with no special casing.
func (r *Report) AttachStream(sr StreamResults) {
	rep := &StreamReport{Files: sr.Files, BudgetBytes: sr.Budget}
	for _, row := range sr.Rows {
		rep.Rows = append(rep.Rows, StreamRowReport{
			NPTS:                row.NPTS,
			Points:              row.Points,
			MaterializedSeconds: row.MaterializedTotal.Seconds(),
			MaterializedPeak:    row.MaterializedPeak,
			StreamingSeconds:    row.StreamingTotal.Seconds(),
			StreamingPeak:       row.StreamingPeak,
			Identical:           row.Identical,
		})
		r.Events = append(r.Events, EventReport{
			Event:  fmt.Sprintf("stream-%d", row.NPTS),
			Files:  sr.Files,
			Points: row.Points,
			Variants: map[string]VariantReport{
				"materialized": {Seconds: row.MaterializedTotal.Seconds()},
				"streaming":    {Seconds: row.StreamingTotal.Seconds()},
			},
		})
	}
	r.Stream = rep
}

// IngestFormatReport is one registered format's decode timing in
// machine-readable form.
type IngestFormatReport struct {
	Format        string  `json:"format"`
	Bytes         int     `json:"bytes"`
	DecodeSeconds float64 `json:"decode_seconds"`
}

// IngestReport is the machine-readable per-format decode microbenchmark
// (see RunIngestBench).
type IngestReport struct {
	NPTS    int                  `json:"npts"`
	Formats []IngestFormatReport `json:"formats"`
}

// AttachIngest adds the decode microbenchmark to the report: the
// structured Ingest block, plus one synthetic event row whose variants are
// the per-format decode times ("decode-v1", "decode-v1a", ...), so the
// existing -compare gate diffs decode-path baselines with no special
// casing.
func (r *Report) AttachIngest(ir IngestResult) {
	rep := &IngestReport{NPTS: ir.NPTS}
	variants := make(map[string]VariantReport, len(ir.Formats))
	for _, f := range ir.Formats {
		rep.Formats = append(rep.Formats, IngestFormatReport{
			Format:        f.Format,
			Bytes:         f.Bytes,
			DecodeSeconds: f.Decode.Seconds(),
		})
		variants["decode-"+f.Format] = VariantReport{Seconds: f.Decode.Seconds()}
	}
	r.Events = append(r.Events, EventReport{
		Event:    "ingest-decode",
		Files:    len(ir.Formats),
		Points:   ir.NPTS,
		Variants: variants,
	})
	r.Ingest = rep
}

// ratio returns num/den in seconds, or 0 when either endpoint is missing.
func ratio(times map[pipeline.Variant]time.Duration, num, den pipeline.Variant) float64 {
	n, okN := times[num]
	d, okD := times[den]
	if !okN || !okD || d <= 0 {
		return 0
	}
	return n.Seconds() / d.Seconds()
}

// NewReport assembles the report for a Table I run under the given
// configuration; checks may be nil when -check did not run.
func NewReport(label string, cfg Config, results []EventResult, checks []string) Report {
	cfg = cfg.withDefaults()
	backend, _ := storage.ParseBackend(string(cfg.Storage))
	var peak int64
	var cs pipeline.CacheStats
	for _, r := range results {
		if r.StorageBytesPeak > peak {
			peak = r.StorageBytesPeak
		}
		cs.Accumulate(r.Cache)
	}
	mode := cfg.Cache.Mode
	rep := Report{
		Label:     label,
		CreatedAt: time.Now().UTC(),
		Host: HostInfo{
			GOOS:                     runtime.GOOS,
			GOARCH:                   runtime.GOARCH,
			GoVersion:                runtime.Version(),
			NumCPU:                   runtime.NumCPU(),
			GOMAXPROCS:               runtime.GOMAXPROCS(0),
			Storage:                  string(backend),
			StorageBytesResidentPeak: peak,
		},
		Scale:         cfg.Scale,
		Workers:       cfg.Workers,
		SimProcessors: resolveSimProcessors(cfg.SimProcessors),
		Repeat:        cfg.Repeat,
		Method:        cfg.Response.Method.String(),
		Periods:       len(cfg.Response.Periods),
		Streaming:     cfg.Streaming,
		Cache: CacheReport{
			Mode:            mode.String(),
			MemoHits:        cs.MemoHits,
			MemoMisses:      cs.MemoMisses,
			MemoPeakBytes:   cs.MemoPeakBytes,
			ActionHits:      cs.ActionHits,
			ActionMisses:    cs.ActionMisses,
			ActionEvictions: cs.ActionEvictions,
		},
		Checks: checks,
	}
	for _, r := range results {
		er := EventReport{
			Event:            r.Spec.Name,
			Files:            r.Files,
			Points:           r.Points,
			Variants:         make(map[string]VariantReport, len(r.Times)),
			SpeedupFull:      r.Speedup(),
			SpeedupPipelined: ratio(r.Times, pipeline.SeqOriginal, pipeline.Pipelined),
			PipelinedVsFull:  ratio(r.Times, pipeline.FullParallel, pipeline.Pipelined),
			PointsPerSecond:  r.PointsPerSecond(),
		}
		for v, d := range r.Times {
			vr := VariantReport{
				Seconds: d.Seconds(),
				Stages:  make(map[string]float64, pipeline.NumStages),
			}
			for _, st := range pipeline.Stages {
				if sd := r.Timings[v].Stage[st.ID]; sd > 0 {
					vr.Stages[st.ID.String()] = sd.Seconds()
				}
			}
			er.Variants[v.String()] = vr
		}
		rep.Events = append(rep.Events, er)
	}
	return rep
}

// Encode renders the report as indented JSON with a trailing newline.
func (r Report) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: encoding report: %w", err)
	}
	return append(out, '\n'), nil
}

// WriteFile writes the encoded report to path.
func (r Report) WriteFile(path string) error {
	out, err := r.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("bench: writing report: %w", err)
	}
	return nil
}
