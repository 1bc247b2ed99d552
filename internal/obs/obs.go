// Package obs is the zero-dependency observability layer of the pipeline
// runtime: hierarchical spans (run → stage → process → task) with monotonic
// and CPU-clock timing, a small metrics registry (counters, gauges,
// histograms), and pluggable sinks that receive finished spans — a JSON-lines
// trace writer, a Prometheus text exposition, an in-memory collector, and a
// human progress renderer.
//
// The paper's contribution is *measured* per-stage cost (Figure 11's
// 57.2%-dominant stage IX dictated the parallelization order), so the
// runtime must be able to answer "where did the time go" from a live run,
// not from separate timers bolted onto each driver.  Every pipeline run
// reports into an Observer; figures and progress output are derived from
// the resulting span tree.
//
// All types are safe for concurrent use, and every entry point tolerates
// nil receivers: a nil *Observer produces nil spans and nil metrics whose
// methods no-op, so instrumented code needs no "if observing" branches.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind classifies a span's level in the run → stage → process → task
// hierarchy.
type SpanKind int

const (
	// KindRun is a whole pipeline (or experiment) execution.
	KindRun SpanKind = iota
	// KindStage is one of the schedule's stages (I-XI) inside a run.
	KindStage
	// KindProcess is one of the chain's 20 processes inside a stage.
	KindProcess
	// KindTask is a sub-process unit of work: a temp-folder staging step,
	// a parallel-loop shard, an ingest of one event directory.
	KindTask
)

// String returns the lower-case name used in trace files.
func (k SpanKind) String() string {
	switch k {
	case KindRun:
		return "run"
	case KindStage:
		return "stage"
	case KindProcess:
		return "process"
	case KindTask:
		return "task"
	default:
		return "span"
	}
}

// Attr is a key/value annotation attached to a span.
type Attr struct {
	Key   string
	Value any
}

// String builds a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer-valued attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// SpanRecord is the immutable description of a finished span, delivered to
// every sink.  Start is an offset from the observer's epoch on the
// monotonic clock; Duration is the *charged* duration (on the simulated
// platform this includes virtual-time corrections, so span trees agree with
// the run's reported Timings), Wall the raw wall-clock duration, and CPU the
// process CPU time consumed while the span was open (meaningful for
// serially executed spans; an approximation under concurrency).
type SpanRecord struct {
	ID       int64
	Parent   int64 // 0 for root spans
	Name     string
	Kind     SpanKind
	Start    time.Duration
	Duration time.Duration
	Wall     time.Duration
	CPU      time.Duration
	Attrs    []Attr
}

// Attr returns the value of the named attribute, or nil.
func (r SpanRecord) Attr(key string) any {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// IntAttr returns the named integer attribute.
func (r SpanRecord) IntAttr(key string) (int64, bool) {
	v, ok := r.Attr(key).(int64)
	return v, ok
}

// StringAttr returns the named string attribute.
func (r SpanRecord) StringAttr(key string) (string, bool) {
	v, ok := r.Attr(key).(string)
	return v, ok
}

// Sink receives finished spans.  Record is called synchronously from
// Span.End, possibly from several goroutines at once; implementations must
// be safe for concurrent use and should return quickly.
type Sink interface {
	Record(SpanRecord)
}

// Observer is the instrumentation hub one run (or one process) reports
// into: it allocates spans, owns the metrics registry, and fans finished
// spans out to its sinks.  The zero value is not usable; construct with New.
// A nil *Observer is a valid "observability off" value everywhere.
type Observer struct {
	epoch  time.Time
	nextID atomic.Int64

	sinkMu sync.RWMutex
	sinks  []Sink

	metricMu   sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an Observer delivering finished spans to the given sinks.
func New(sinks ...Sink) *Observer {
	return &Observer{
		epoch:      time.Now(),
		sinks:      append([]Sink(nil), sinks...),
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// AddSink attaches an additional sink; RemoveSink detaches it again.  The
// bench harness uses this to tap a shared observer with a per-run collector.
func (o *Observer) AddSink(s Sink) {
	if o == nil || s == nil {
		return
	}
	o.sinkMu.Lock()
	o.sinks = append(o.sinks, s)
	o.sinkMu.Unlock()
}

// RemoveSink detaches a sink previously attached with New or AddSink.
func (o *Observer) RemoveSink(s Sink) {
	if o == nil {
		return
	}
	o.sinkMu.Lock()
	defer o.sinkMu.Unlock()
	for i, have := range o.sinks {
		if have == s {
			o.sinks = append(o.sinks[:i], o.sinks[i+1:]...)
			return
		}
	}
}

// now returns the monotonic offset from the observer's epoch.
func (o *Observer) now() time.Duration { return time.Since(o.epoch) }

func (o *Observer) emit(rec SpanRecord) {
	o.sinkMu.RLock()
	sinks := o.sinks
	o.sinkMu.RUnlock()
	for _, s := range sinks {
		s.Record(rec)
	}
}

// Span is an open interval of work.  Create roots with Observer.Root and
// children with Span.Child; finish with End or EndCharged.  All methods are
// nil-safe, so instrumented code can thread spans unconditionally.
type Span struct {
	o      *Observer
	id     int64
	parent int64
	name   string
	kind   SpanKind
	start  time.Duration
	cpu0   time.Duration
	attrs  []Attr
	ended  atomic.Bool
}

// Root opens a top-level span.
func (o *Observer) Root(name string, kind SpanKind, attrs ...Attr) *Span {
	if o == nil {
		return nil
	}
	return o.open(0, name, kind, attrs)
}

func (o *Observer) open(parent int64, name string, kind SpanKind, attrs []Attr) *Span {
	return &Span{
		o:      o,
		id:     o.nextID.Add(1),
		parent: parent,
		name:   name,
		kind:   kind,
		start:  o.now(),
		cpu0:   cpuNow(),
		attrs:  attrs,
	}
}

// Child opens a span nested under s.  Safe to call from several goroutines
// at once (task-parallel stages open concurrent process spans).
func (s *Span) Child(name string, kind SpanKind, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.o.open(s.id, name, kind, attrs)
}

// ID returns the span's identifier (0 for a nil span).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// End finishes the span with its wall-clock duration and delivers the
// record to the observer's sinks.  Ending a span twice is a no-op.
func (s *Span) End(attrs ...Attr) { s.end(-1, attrs) }

// EndCharged finishes the span like End but reports the given charged
// duration instead of the wall-clock one.  The pipeline uses this so spans
// carry the same virtual-corrected durations as Result.Timings when running
// on the simulated platform.
func (s *Span) EndCharged(d time.Duration, attrs ...Attr) { s.end(d, attrs) }

func (s *Span) end(charged time.Duration, attrs []Attr) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	wall := s.o.now() - s.start
	d := charged
	if d < 0 {
		d = wall
	}
	rec := SpanRecord{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Kind:     s.kind,
		Start:    s.start,
		Duration: d,
		Wall:     wall,
		CPU:      cpuNow() - s.cpu0,
		Attrs:    s.attrs,
	}
	if len(attrs) > 0 {
		rec.Attrs = append(append([]Attr(nil), s.attrs...), attrs...)
	}
	s.o.emit(rec)
}
