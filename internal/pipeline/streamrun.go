package pipeline

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"accelproc/internal/dsp"
	"accelproc/internal/faults"
	"accelproc/internal/fourier"
	"accelproc/internal/ingest"
	"accelproc/internal/response"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
	"accelproc/internal/stream"
)

// This file implements the streaming execution plane (Options.Streaming) on
// top of the Pipelined variant: records move between nodes as pooled chunks
// instead of whole decoded artifacts, so a (producer, consumer) node pair
// runs concurrently and stored bytes stay flat no matter how large NPTS
// grows.
//
// Three stream edges exist per record, mirroring the artifact chain:
//
//   #3 separate  ──raw comp chunks──▶  #4 default filter (gathers)
//   #4 default filter ──corrected accel chunks──▶  #7 Fourier (gathers)
//   #13 definitive filter ──corrected accel chunks──▶  #16 response (gathers)
//
// Only #3's scan is chunk-at-a-time end to end.  The filters, the FFT and
// the response spectrum need a whole component before they can start, so
// each gathers one component from its in-stream, processes it, and moves on
// to the next.  #13 has no in-stream: its V1 inputs are durable by then
// (written by #3) and it reads them whole, and the WAR edge #7→#13 stays a
// completion edge so the definitive filter never overwrites a V2 file the
// Fourier stage is still reading.  Every streamed producer writes its
// durable artifact through Workspace.Create, so the on-disk outputs are byte
// for byte those of a materialized run and downstream consumers that did not
// get a stream (plots, GEM exports, resumed runs) read the same files as
// always.
//
// Fallback discipline: a stream is closed with stream.ErrFallback whenever
// its producer did not stream (resume skip or quarantine skip) —
// dataflowrun.go's closingStream does this after the node returns, which is
// after the durable outputs landed, so a consumer that sees ErrFallback can
// always read the artifacts instead.

// streamHeader is the record metadata a streamed producer publishes before
// its chunks: enough for the consumer to size and time its own processing.
type streamHeader struct {
	Station string
	DT      float64
	NPTS    int
}

// streamProducerOf names each streamed consumer's producer process: the one
// record-scoped RAW edge per consumer that becomes a stream edge.
var streamProducerOf = map[ProcessID]ProcessID{
	PDefaultFilter:    PSeparateComponents,
	PFourier:          PDefaultFilter,
	PResponseSpectrum: PCorrectedFilter,
}

// streamEdgeTag names each producer's spill subdirectory under the record's
// stream scratch dir.
var streamEdgeTag = map[ProcessID]string{
	PSeparateComponents: "sep",
	PDefaultFilter:      "def",
	PCorrectedFilter:    "cor",
}

// streamBase is the per-record scratch directory holding stream spills.  The
// tmp_ prefix keeps it inside the resume plane's stale-scratch sweep.
func (c *stepGraph) streamBase(i int, st string) string {
	return c.s.path(fmt.Sprintf("tmp_stream_%02d_%s", i, st))
}

// setupStreams allocates the run's chunk pools, one stream per (producer,
// record) stream edge, and the per-record scratch directories.
func (c *stepGraph) setupStreams() error {
	s := c.s
	c.pool = stream.NewPool(stream.DefaultChunkLen)
	c.gatherPool = fourier.NewGatherPool(stream.DefaultChunkLen)
	c.streams = map[ProcessID][]*stream.Stream{}
	for pid := range streamEdgeTag {
		c.streams[pid] = make([]*stream.Stream, len(c.stations))
	}
	for i, st := range c.stations {
		base := c.streamBase(i, st)
		if err := s.ws.MkdirAll(base, 0o755); err != nil {
			return err
		}
		c.spillDirs = append(c.spillDirs, base)
		for pid, tag := range streamEdgeTag {
			dir := filepath.Join(base, tag)
			if err := s.ws.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			c.streams[pid][i] = stream.New(s.ws, dir, stream.DefaultWindow, c.pool)
		}
	}
	return nil
}

// teardownStreams force-closes and drains every stream (releasing pooled
// chunks and deleting spill files a consumer never read) and removes the
// scratch directories.  Idempotent; a no-op for non-streaming builds.  The
// ErrFallback close is first-reason-wins, so streams that already ended keep
// their original close reason.
func (c *stepGraph) teardownStreams() {
	if c.streams == nil {
		return
	}
	for _, ss := range c.streams {
		for _, st := range ss {
			if st == nil {
				continue
			}
			st.Close(stream.ErrFallback)
			_ = st.Drain(func(*stream.Chunk) error { return nil })
		}
	}
	if !c.s.opts.KeepTempDirs {
		for _, dir := range c.spillDirs {
			_ = c.s.ws.RemoveAll(dir)
		}
	}
	c.streams = nil
	c.spillDirs = nil
}

// streaming reports whether this graph runs the streaming execution plane.
func (c *stepGraph) streaming() bool { return c.streams != nil }

// outStream returns the stream a Pipelined record node produces into, or
// nil.
func (c *stepGraph) outStream(pid ProcessID, df *dfNode) *stream.Stream {
	if c.streams == nil || df.station == "" {
		return nil
	}
	ss, ok := c.streams[pid]
	if !ok {
		return nil
	}
	return ss[df.i]
}

// inStream returns the stream a consumer node receives from, or nil.
func (c *stepGraph) inStream(pid ProcessID, i int) *stream.Stream {
	from, ok := streamProducerOf[pid]
	if !ok || c.streams == nil {
		return nil
	}
	return c.streams[from][i]
}

// fallbackClose reports whether a Header/Recv error means "read the durable
// artifacts instead": the producer fell back, or closed cleanly before
// publishing a header (it never streamed at all).
func fallbackClose(err error) bool {
	return errors.Is(err, stream.ErrFallback) || err == io.EOF
}

// abortCreate discards an in-progress Workspace.Create writer so a partial
// payload can never be renamed into place.
func abortCreate(w io.WriteCloser) {
	if a, ok := w.(interface{ Abort() }); ok {
		a.Abort()
		return
	}
	w.Close()
}

// streamSeparateStation is the streamed body of one record of process #3: it
// opens the station's input through the ingest plane (format resolution, QC
// gate, rotation) and scans the record once, writing each per-component file
// incrementally while sending the same chunks down the stream to the default
// filter.  Native V1 input with a header-only QC gate streams truly
// incrementally; foreign formats, sample-scanning QC, and rotated records
// materialize inside ingest.OpenChunks but still stream outward.  The
// emitted files are byte-identical to separateStation's.
//
// Rejections surface at open time — before the header or any chunk has been
// sent — and quarantine the record exactly as the unstreamed body does.
// There is no retryOp around the open: a half-streamed node cannot be
// retried, so transient open failures also condemn the record (at attempt 1)
// rather than risk replaying chunks downstream.
func (c *stepGraph) streamSeparateStation(i int, st string) error {
	s := c.s
	out := c.streams[PSeparateComponents][i]
	name, err := s.inputFileOf(st)
	if err != nil {
		return err
	}
	rc := recordSite{stage: StageIII, proc: PSeparateComponents, station: st}
	r, err := ingest.OpenChunks(s.ws, s.path(name), s.informat, s.opts.QC)
	if err != nil {
		if kind := classify(err); kind != ErrKindCanceled {
			return s.degraded(rc, &StageError{Stage: rc.stage, Process: rc.proc,
				Record: st, Op: "decode", Kind: kind, Attempts: 1, Err: err})
		}
		return err
	}
	defer r.Close()
	hdr := r.Header()
	out.SetHeader(streamHeader{Station: st, DT: hdr.DT, NPTS: hdr.NPTS})
	for ci, comp := range seismic.Components {
		if _, err := r.NextComponent(); err != nil {
			return err
		}
		w, err := smformat.NewV1ComponentStreamWriter(s.ws, s.path(smformat.V1ComponentFileName(st, comp)), st, comp, hdr.DT, hdr.NPTS)
		if err != nil {
			return err
		}
		for {
			ch := c.pool.Get(ci)
			buf := ch.Data[:cap(ch.Data)]
			n, rerr := r.Read(buf)
			if n > 0 {
				ch.Data = buf[:n]
				// Append copies into the writer's buffer before Send hands
				// the chunk's ownership to the stream.
				if err := w.Append(ch.Data); err != nil {
					ch.Release()
					w.Abort()
					return err
				}
				if err := out.Send(ch); err != nil {
					w.Abort()
					return err
				}
			} else {
				ch.Release()
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				w.Abort()
				return rerr
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	out.Close(nil)
	return nil
}

// streamFilterRecord is the streamed body of one record of processes #4 and
// #13.  The filter needs its whole input, so per component it gathers the
// raw samples — from the in-stream when #3 streamed, from the durable
// per-component V1 otherwise (always, for #13) — runs the shared
// correctSignal, sends the corrected acceleration downstream in pooled
// chunks so the gather consumer starts before the V2 lands, and then writes
// the V2 through Create.  The record's peaks land in peaks, one per
// component.
func (c *stepGraph) streamFilterRecord(pid ProcessID, i int, st string, peaks []seismic.PeakValues) error {
	s := c.s
	params, err := s.readFilterParams(s.path(smformat.FilterParamsFile))
	if err != nil {
		return err
	}
	out := c.streams[pid][i]
	in := c.inStream(pid, i)
	var hdr streamHeader
	if in != nil {
		h, herr := in.Header()
		switch {
		case herr == nil:
			var ok bool
			if hdr, ok = h.(streamHeader); !ok {
				return fmt.Errorf("pipeline: stream for %s carries %T, want header", st, h)
			}
		case fallbackClose(herr):
			// The producer did not stream; its per-component files are
			// durable.  Unless the record was condemned while this node was
			// already blocked on the header (the decode node quarantines
			// before its wrapper closes the stream, so the flag is visible
			// here): then there are no durable files and the record simply
			// yields no peaks.
			if s.isQuarantined(st) {
				return nil
			}
			in = nil
		default:
			return herr
		}
	}
	for ci, comp := range seismic.Components {
		key := smformat.SignalKey{Station: st, Component: comp}
		var v1 smformat.V1Component
		var g *fourier.GatherBuffer
		if in != nil {
			g = c.gatherPool.Get()
			err = recvComponent(in, st, ci, hdr.NPTS, g)
			v1 = smformat.V1Component{Station: st, Component: comp, DT: hdr.DT, Accel: g.Data}
		} else {
			// Not through readV1Comp: the memo would keep every component
			// this node reads alive for the rest of the run.
			v1, err = smformat.ReadV1ComponentFileFS(s.ws, s.path(smformat.V1ComponentFileName(st, comp)))
		}
		var v2 smformat.V2
		var pk seismic.PeakValues
		if err == nil {
			v2, pk, err = s.correctSignal(v1, params.Spec(key))
		}
		if g != nil {
			// correctSignal filters a copy, so the gathered samples are
			// free to go back to the pool.
			g.Release()
		}
		if err != nil {
			return err
		}
		if ci == 0 {
			out.SetHeader(streamHeader{Station: st, DT: v2.DT, NPTS: len(v2.Accel)})
		}
		if err := c.sendSamples(out, ci, v2.Accel); err != nil {
			return err
		}
		// Upstream chunks consumed and corrected chunks sent, durable output
		// not yet committed: the crash matrix kills here to prove resume
		// re-executes the node instead of trusting a half-written artifact.
		faults.Crash(faults.CrashStreamNode)
		if err := smformat.WriteFileCreateFS(s.ws, s.path(smformat.V2FileName(st, comp)), v2); err != nil {
			return err
		}
		peaks[ci] = pk
	}
	out.Close(nil)
	return nil
}

// sendSamples sends xs down out as component ci's pooled chunks.
func (c *stepGraph) sendSamples(out *stream.Stream, ci int, xs []float64) error {
	for len(xs) > 0 {
		ch := c.pool.Get(ci)
		n := copy(ch.Data[:cap(ch.Data)], xs)
		ch.Data = ch.Data[:n]
		if err := out.Send(ch); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

// recvComponent gathers component ci's npts samples from in into g.  Errors
// from the stream (including a fallback close) are returned unwrapped.
func recvComponent(in *stream.Stream, st string, ci, npts int, g *fourier.GatherBuffer) error {
	for len(g.Data) < npts {
		c, err := in.Recv()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("pipeline: stream for %s ended after %d of %d samples of component %s", st, len(g.Data), npts, seismic.Components[ci])
			}
			return err
		}
		if c.Comp != ci {
			c.Release()
			return fmt.Errorf("pipeline: stream for %s delivered component %d while gathering %d", st, c.Comp, ci)
		}
		g.Append(c.Data)
		c.Release()
	}
	return nil
}

// streamFourierRecord is the streamed body of one record of process #7: a
// gather consumer — the FFT needs the whole trace — fed by the default
// filter's acceleration chunks.
func (c *stepGraph) streamFourierRecord(i int, st string) error {
	return c.gatherRecord(PFourier, i, st, func(v2 smformat.V2) error {
		f, err := fourier.Spectra(v2)
		if err != nil {
			return err
		}
		return smformat.WriteFileCreateFS(c.s.ws, c.s.path(smformat.FourierFileName(v2.Station, v2.Component)), f)
	})
}

// streamResponseRecord is the streamed body of one record of process #16,
// gathering the definitive filter's acceleration chunks.
func (c *stepGraph) streamResponseRecord(i int, st string) error {
	return c.gatherRecord(PResponseSpectrum, i, st, func(v2 smformat.V2) error {
		r, err := response.Spectrum(v2, c.s.opts.Response)
		if err != nil {
			return err
		}
		return smformat.WriteFileCreateFS(c.s.ws, c.s.path(smformat.ResponseFileName(v2.Station, v2.Component)), r)
	})
}

// gatherRecord drains one record's in-stream component by component into a
// pooled gather buffer, reconstructs each component's V2 value (velocity and
// displacement re-derived by the same trapezoidal integration the producer
// used — bit-identical), and emits the derived product.  A fallback close at
// any point degrades to reading the durable V2 files.
func (c *stepGraph) gatherRecord(pid ProcessID, i int, st string, emit func(smformat.V2) error) error {
	in := c.inStream(pid, i)
	h, err := in.Header()
	if fallbackClose(err) {
		return c.gatherFromDurable(st, emit)
	}
	if err != nil {
		return err
	}
	hdr, ok := h.(streamHeader)
	if !ok {
		return fmt.Errorf("pipeline: stream for %s carries %T, want header", st, h)
	}
	g := c.gatherPool.Get()
	defer g.Release()
	for ci, comp := range seismic.Components {
		g.Data = g.Data[:0]
		if err := recvComponent(in, st, ci, hdr.NPTS, g); err != nil {
			if errors.Is(err, stream.ErrFallback) {
				return c.gatherFromDurable(st, emit)
			}
			return err
		}
		accel := g.Data
		vel := dsp.Integrate(accel, hdr.DT)
		disp := dsp.Integrate(vel, hdr.DT)
		v2 := smformat.V2{Station: st, Component: comp, DT: hdr.DT, Accel: accel, Vel: vel, Disp: disp}
		if err := emit(v2); err != nil {
			return err
		}
	}
	return nil
}

// gatherFromDurable is the gather consumers' fallback: the producer's V2
// files are durable (it was resume-skipped or took a fallback path itself);
// read them whole as the materialized path does.  A record condemned while
// this consumer was already blocked on its stream has no durable files —
// and nothing downstream to feed — so it emits nothing.
func (c *stepGraph) gatherFromDurable(st string, emit func(smformat.V2) error) error {
	if c.s.isQuarantined(st) {
		return nil
	}
	for _, comp := range seismic.Components {
		v2, err := c.s.readV2(c.s.path(smformat.V2FileName(st, comp)))
		if err != nil {
			return err
		}
		if err := emit(v2); err != nil {
			return err
		}
	}
	return nil
}
