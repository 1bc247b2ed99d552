package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"

	"accelproc/internal/artifact"
	"accelproc/internal/dsp"
	"accelproc/internal/obs"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
)

// This file gives the dataflow scheduler its action-cache skip rule: every
// per-(record,process) node is keyed by a digest of (scheme, process id,
// station, input artifact contents, and the Options parameters the node's
// kernels read), following the build-action scheme of cmd/go.  An input
// contributes its name, content SHA-256 and size, taken from the workspace's
// Sum (one stat for a file this process wrote), never its bytes.  A node whose
// digest is already in the cache restores its recorded outputs instead of
// running; re-submitting an event with one changed station therefore redoes
// only that record's subgraph, because no other record's digests moved.
//
// Why parameters are part of the key: two runs over identical inputs but a
// different taper fraction, instrument deconvolution, response method, or
// corner-pick configuration must not share outputs — the options are inputs
// to the computation in every way that matters, they just don't arrive as
// files.  Hashing them closes the same hole hashing file contents closes
// for mtime: identity comes from what the stage actually consumes.
//
// Filter parameters are hashed as the *station's slice* of the filter-params
// file (the default corners plus this station's three per-signal entries),
// not the whole file: the file carries every station's picked corners, so a
// whole-file hash would invalidate all records whenever one record's picks
// change — exactly the cross-record coupling the action cache exists to cut.
//
// Two outputs never land as work-directory files and ride the manifest as
// "@"-prefixed side-channel blobs instead: a filter record's share of the
// max-values metadata, and the corners process #10 picked for a record.
// One codec per side-carrying process (sideCodecs) encodes the share from
// the state the process's phases keep and restores it there, for the
// action cache and the run journal alike, so the join nodes rewrite the
// identical merged files.  Join and global nodes always run — they are
// cheap merges and metadata writes whose inputs the restored shares
// reproduce bit-for-bit.

// actionScheme versions the digest layout; bump on any change to the hashed
// fields so entries from older binaries can never alias.  v2: process #3
// hashes the station's actual input file (any ingest format) plus the
// -format override and QC configuration instead of assuming <st>.v1.  v3:
// input files are folded in as (name, content sum, size), not their bytes.
const actionScheme = "accelproc/action/v3"

// sideCodec is the side channel of a process whose records each leave a
// share of an event-global output for its join: blob names the share in an
// action-cache manifest ("@" keeps it disjoint from real file names),
// encode serializes record i's share from the compiled phases' state, and
// decode restores it there.
type sideCodec struct {
	blob   string
	encode func(c *stepGraph, pid ProcessID, i int) ([]byte, error)
	decode func(c *stepGraph, pid ProcessID, i int, data []byte) error
}

// sideCodecs are the side-carrying processes: the filters' peaks, in the
// max-values text format, and #10's picked corners, as JSON.
var sideCodecs = map[ProcessID]sideCodec{
	PDefaultFilter:   {"@maxvalues", encodePeaks, decodePeaks},
	PCorrectedFilter: {"@maxvalues", encodePeaks, decodePeaks},
	PPickCorners:     {"@picks", encodePicks, decodePicks},
}

func encodePeaks(c *stepGraph, pid ProcessID, i int) ([]byte, error) {
	frag := smformat.MaxValues{Peaks: make(map[smformat.SignalKey]seismic.PeakValues, len(seismic.Components))}
	for ci, comp := range seismic.Components {
		frag.Peaks[smformat.SignalKey{Station: c.stations[i], Component: comp}] = c.peaks[pid][3*i+ci]
	}
	var buf bytes.Buffer
	err := frag.Write(&buf)
	return buf.Bytes(), err
}

func decodePeaks(c *stepGraph, pid ProcessID, i int, data []byte) error {
	frag, err := smformat.ParseMaxValues(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for ci, comp := range seismic.Components {
		key := smformat.SignalKey{Station: c.stations[i], Component: comp}
		pk, ok := frag.Peaks[key]
		if !ok {
			return fmt.Errorf("pipeline: max-values side payload lacks %s", key)
		}
		c.peaks[pid][3*i+ci] = pk
	}
	return nil
}

func encodePicks(c *stepGraph, _ ProcessID, i int) ([]byte, error) {
	return json.Marshal([3]dsp.BandPassSpec(c.specs[3*i : 3*i+3]))
}

func decodePicks(c *stepGraph, _ ProcessID, i int, data []byte) error {
	var specs [3]dsp.BandPassSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return err
	}
	copy(c.specs[3*i:], specs[:])
	return nil
}

// side encodes record i's side payload of process pid under its blob name;
// blob is "" for a process without a side channel.
func (c *stepGraph) side(pid ProcessID, i int) (blob string, data []byte, err error) {
	codec, ok := sideCodecs[pid]
	if !ok {
		return "", nil, nil
	}
	data, err = codec.encode(c, pid, i)
	return codec.blob, data, err
}

// resumeSide feeds a journaled node's side payload back into record i's
// share of the phases' state, as restoreNode does for a cached one.  A
// process without a side channel restores vacuously; false means the
// payload did not parse and the node must execute instead.
func (c *stepGraph) resumeSide(pid ProcessID, i int, data []byte) bool {
	codec, ok := sideCodecs[pid]
	return !ok || codec.decode(c, pid, i, data) == nil
}

// nodeAction computes the action digest of one per-record node.  ok=false
// means the node is not cacheable right now — no action cache, an input
// unreadable (the body will surface the real error), or a process with no
// digest rule — and the node must execute.
func (c *stepGraph) nodeAction(pid ProcessID, st string) (artifact.ActionID, bool) {
	s := c.s
	if s.acache == nil || st == "" {
		return artifact.ActionID{}, false
	}
	names := c.nodeInputNames(pid, st)
	if len(names) == 0 {
		return artifact.ActionID{}, false
	}
	h := artifact.NewHasher(actionScheme)
	h.Int(int64(pid))
	h.String(st)
	ok := true
	switch pid {
	case PSeparateComponents:
		ok = c.hashFiles(h, names...)
		h.String("format:" + s.opts.Format)
		h.String("qc:" + s.opts.QC.String())
	case PDefaultFilter, PCorrectedFilter:
		// names[0] is the filter-params file, hashed as the station's slice.
		ok = c.hashFilterParamsFor(h, st) && c.hashFiles(h, names[1:]...)
		h.Float(s.opts.TaperFraction)
		if ins := s.opts.Instrument; ins != nil {
			h.String(fmt.Sprintf("instrument:%#v", *ins))
		} else {
			h.String("instrument:none")
		}
	case PFourier, PPlotAccel, PPlotResponse, PGenerateGEM:
		ok = c.hashFiles(h, names...)
	case PPlotFourier, PPickCorners:
		h.String(fmt.Sprintf("pick:%#v", s.opts.Pick))
		ok = c.hashFiles(h, names...)
	case PResponseSpectrum:
		h.String(fmt.Sprintf("response:%#v", s.opts.Response))
		ok = c.hashFiles(h, names...)
	default:
		return artifact.ActionID{}, false
	}
	if !ok {
		return artifact.ActionID{}, false
	}
	return h.Sum(), true
}

// nodeInputNames lists the work-directory files the units of process pid
// read for station st — for st == "", its event-global units — in the
// order the action digest folds them in.  The same list feeds the digest
// and the memo's liveness counts (see stepGraph.countReads), so a reader the
// digest knows of is a reader the memo waits for.  Nil when st's input file
// is unknown.
func (c *stepGraph) nodeInputNames(pid ProcessID, st string) []string {
	if st == "" {
		switch pid {
		case PDefaultFilter, PCorrectedFilter, PPickCorners:
			// The direct filters' corner read; #10's read-modify-write.
			return []string{smformat.FilterParamsFile}
		}
		return nil
	}
	switch pid {
	case PSeparateComponents, PSeparateComps2:
		if name := c.inputFile(st); name != "" {
			return []string{name}
		}
		return nil
	case PDefaultFilter, PCorrectedFilter:
		return append([]string{smformat.FilterParamsFile}, componentNames(smformat.V1ComponentFileName, st)...)
	case PPlotUncorrected:
		return componentNames(smformat.V1ComponentFileName, st)
	case PFourier, PPlotAccel, PResponseSpectrum:
		return componentNames(smformat.V2FileName, st)
	case PPlotFourier, PPickCorners:
		return componentNames(smformat.FourierFileName, st)
	case PPlotResponse:
		return componentNames(smformat.ResponseFileName, st)
	case PGenerateGEM:
		return append(componentNames(smformat.V2FileName, st), componentNames(smformat.ResponseFileName, st)...)
	}
	return nil
}

// inputFile returns station st's input file name, "" if the gathered list
// has none.  The list is final once stage I has run, before any graph that
// reads records is compiled, so it is read once per graph.
func (c *stepGraph) inputFile(st string) string {
	c.inputsOnce.Do(func() { c.inputs, _ = c.s.inputsByStation() })
	return c.inputs[st]
}

// componentNames expands one per-component name helper over the three
// components of a station, in deterministic component order.
func componentNames(name func(string, seismic.Component) string, st string) []string {
	out := make([]string, len(seismic.Components))
	for i, c := range seismic.Components {
		out[i] = name(st, c)
	}
	return out
}

// hashFiles folds the named work-directory files (name, content sum, size)
// into the digest; false if any is not a regular file.
func (c *stepGraph) hashFiles(h *artifact.Hasher, names ...string) bool {
	for _, name := range names {
		sum, size, ok := c.s.ws.Sum(c.s.path(name))
		if !ok {
			return false
		}
		h.String("file:" + name)
		h.Bytes(sum[:])
		h.Int(size)
	}
	return true
}

// hashFilterParamsFor folds the station's slice of the filter-params file
// into the digest: the default corners plus this station's per-signal
// entries (present or explicitly absent, per component).
func (c *stepGraph) hashFilterParamsFor(h *artifact.Hasher, st string) bool {
	params, err := c.s.readFilterParams(c.s.path(smformat.FilterParamsFile))
	if err != nil {
		return false
	}
	hashSpec := func(spec dsp.BandPassSpec) {
		h.Float(spec.FSL)
		h.Float(spec.FPL)
		h.Float(spec.FPH)
		h.Float(spec.FSH)
	}
	h.String("params:default")
	hashSpec(params.Default)
	for _, c := range seismic.Components {
		key := smformat.SignalKey{Station: st, Component: c}
		if spec, ok := params.PerSignal[key]; ok {
			h.String("params:signal:" + key.String())
			hashSpec(spec)
		} else {
			h.String("params:absent:" + key.String())
		}
	}
	return true
}

// nodeOutputNames lists the work-directory files one per-record node
// produces (side-channel blobs are appended separately by storeNode).
func nodeOutputNames(pid ProcessID, st string) []string {
	switch pid {
	case PSeparateComponents:
		return componentNames(smformat.V1ComponentFileName, st)
	case PDefaultFilter, PCorrectedFilter:
		return componentNames(smformat.V2FileName, st)
	case PFourier:
		return componentNames(smformat.FourierFileName, st)
	case PPlotFourier:
		return []string{smformat.FourierPlotFileName(st)}
	case PPickCorners:
		return nil // picks travel only through the side channel
	case PPlotAccel:
		return []string{smformat.AccelPlotFileName(st)}
	case PResponseSpectrum:
		return componentNames(smformat.ResponseFileName, st)
	case PPlotResponse:
		return []string{smformat.ResponsePlotFileName(st)}
	case PGenerateGEM:
		names := make([]string, 0, 18)
		for _, c := range seismic.Components {
			for _, kind := range []smformat.GEMKind{smformat.GEMFromV2, smformat.GEMFromR} {
				for _, q := range []smformat.GEMQuantity{smformat.GEMAcceleration, smformat.GEMVelocity, smformat.GEMDisplacement} {
					names = append(names, smformat.GEMFileName(st, c, kind, q))
				}
			}
		}
		return names
	}
	return nil
}

// restoreNode attempts to satisfy one per-record node from the action
// cache: real outputs are linked back into the work directory (see
// ActionCache.RestoreInto), a side blob is decoded into record i's share of
// the phases' state.  Any failure — miss, damaged entry, or a workspace
// error — reports false and the node executes normally (a real write error
// will then resurface from the body itself).
func (c *stepGraph) restoreNode(id artifact.ActionID, pid ProcessID, i int) bool {
	side := func(name string, data []byte) error {
		codec, ok := sideCodecs[pid]
		if !ok || name != codec.blob {
			return fmt.Errorf("pipeline: unknown side-channel blob %q", name)
		}
		return codec.decode(c, pid, i, data)
	}
	restored, err := c.s.acache.RestoreInto(id, c.s.dir, side)
	return err == nil && restored
}

// journalNodeDone appends one node-done record to the run journal (a no-op
// when journaling is off), carrying the node's side payload, under a
// journal.append task span of the node's span.
func (c *stepGraph) journalNodeDone(node *obs.Span, pid ProcessID, df *dfNode) {
	if c.s.journal == nil {
		return
	}
	defer node.Child("journal.append", obs.KindTask).End()
	_, side, err := c.side(pid, df.i)
	if err != nil {
		return
	}
	c.s.journal.nodeDone(pid, df.station, side)
}

// storeNode records one successfully executed per-record node's outputs
// under its action digest, handing Put the product paths to link rather
// than their bytes, under an artifact.put task span of the node's span.
// Best-effort in every direction: a missing output or a failed Put just
// forfeits a future hit.
func (c *stepGraph) storeNode(node *obs.Span, id artifact.ActionID, pid ProcessID, df *dfNode) {
	defer node.Child("artifact.put", obs.KindTask).End()
	s := c.s
	names := nodeOutputNames(pid, df.station)
	blobs := make([]artifact.Blob, 0, len(names)+1)
	for _, name := range names {
		blobs = append(blobs, artifact.Blob{Name: name, Path: s.path(name)})
	}
	blob, data, err := c.side(pid, df.i)
	if err != nil {
		return
	}
	if blob != "" {
		blobs = append(blobs, artifact.Blob{Name: blob, Data: data})
	}
	_ = s.acache.Put(id, blobs)
}
