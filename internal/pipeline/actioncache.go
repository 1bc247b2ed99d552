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
// "@"-prefixed side-channel blobs instead: the max-values fragment a filter
// node hands its join (restored into b.fragsDef/b.fragsCor), and the picked
// corners of process #10 (restored into b.picks, so the filter-params join
// rewrites the identical merged file).  Join and global nodes always run —
// they are cheap merges and metadata writes whose inputs the restored
// fragments reproduce bit-for-bit.

// actionScheme versions the digest layout; bump on any change to the hashed
// fields so entries from older binaries can never alias.  v2: process #3
// hashes the station's actual input file (any ingest format) plus the
// -format override and QC configuration instead of assuming <st>.v1.  v3:
// input files are folded in as (name, content sum, size), not their bytes.
const actionScheme = "accelproc/action/v3"

// Side-channel blob names; "@" keeps them disjoint from real file names.
const (
	sideMaxValues = "@maxvalues"
	sidePicks     = "@picks"
)

// nodeAction computes the action digest of one per-record node.  ok=false
// means the node is not cacheable right now — no action cache, an input
// unreadable (the body will surface the real error), or a process with no
// digest rule — and the node must execute.
func (b *dfBuild) nodeAction(pid ProcessID, st string) (artifact.ActionID, bool) {
	s := b.s
	if s.acache == nil || st == "" {
		return artifact.ActionID{}, false
	}
	h := artifact.NewHasher(actionScheme)
	h.Int(int64(pid))
	h.String(st)
	ok := true
	switch pid {
	case PSeparateComponents:
		name, err := s.inputFileOf(st)
		if err != nil {
			return artifact.ActionID{}, false
		}
		ok = b.hashFiles(h, name)
		h.String("format:" + s.opts.Format)
		h.String("qc:" + s.opts.QC.String())
	case PDefaultFilter, PCorrectedFilter:
		ok = b.hashFilterParamsFor(h, st) &&
			b.hashFiles(h, componentNames(smformat.V1ComponentFileName, st)...)
		h.Float(s.opts.TaperFraction)
		if ins := s.opts.Instrument; ins != nil {
			h.String(fmt.Sprintf("instrument:%#v", *ins))
		} else {
			h.String("instrument:none")
		}
	case PFourier, PPlotAccel:
		ok = b.hashFiles(h, componentNames(smformat.V2FileName, st)...)
	case PPlotFourier, PPickCorners:
		h.String(fmt.Sprintf("pick:%#v", s.opts.Pick))
		ok = b.hashFiles(h, componentNames(smformat.FourierFileName, st)...)
	case PResponseSpectrum:
		h.String(fmt.Sprintf("response:%#v", s.opts.Response))
		ok = b.hashFiles(h, componentNames(smformat.V2FileName, st)...)
	case PPlotResponse:
		ok = b.hashFiles(h, componentNames(smformat.ResponseFileName, st)...)
	case PGenerateGEM:
		ok = b.hashFiles(h, append(componentNames(smformat.V2FileName, st),
			componentNames(smformat.ResponseFileName, st)...)...)
	default:
		return artifact.ActionID{}, false
	}
	if !ok {
		return artifact.ActionID{}, false
	}
	return h.Sum(), true
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
func (b *dfBuild) hashFiles(h *artifact.Hasher, names ...string) bool {
	for _, name := range names {
		sum, size, ok := b.s.ws.Sum(b.s.path(name))
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
func (b *dfBuild) hashFilterParamsFor(h *artifact.Hasher, st string) bool {
	params, err := b.s.readFilterParams(b.s.path(smformat.FilterParamsFile))
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
// ActionCache.RestoreInto), side-channel blobs decoded into the build's
// fragment state.  Any failure — miss, damaged entry, or a workspace error —
// reports false and the node executes normally (a real write error will
// then resurface from the body itself).
func (b *dfBuild) restoreNode(id artifact.ActionID, pid ProcessID, i int) bool {
	side := func(name string, data []byte) error {
		switch name {
		case sideMaxValues:
			mv, err := smformat.ParseMaxValues(bytes.NewReader(data))
			if err != nil {
				return err
			}
			if pid == PDefaultFilter {
				b.fragsDef[i] = mv
			} else {
				b.fragsCor[i] = mv
			}
			return nil
		case sidePicks:
			var specs [3]dsp.BandPassSpec
			if err := json.Unmarshal(data, &specs); err != nil {
				return err
			}
			b.picks[i] = specs
			b.picked[i] = true
			return nil
		default:
			return fmt.Errorf("pipeline: unknown side-channel blob %q", name)
		}
	}
	restored, err := b.s.acache.RestoreInto(id, b.s.dir, side)
	return err == nil && restored
}

// restoreResumedSide feeds a journaled node's side-channel payload back
// into the build's fragment state, exactly as restoreNode does for a cached
// one: the max-values fragment into fragsDef/fragsCor, the picked corners
// into picks.  Nodes without a side channel restore vacuously.  False means
// the payload did not parse and the node must execute instead.
func (b *dfBuild) restoreResumedSide(n journalNode, i int) bool {
	switch n.pid {
	case PDefaultFilter, PCorrectedFilter:
		mv, err := smformat.ParseMaxValues(bytes.NewReader(n.side))
		if err != nil {
			return false
		}
		if n.pid == PDefaultFilter {
			b.fragsDef[i] = mv
		} else {
			b.fragsCor[i] = mv
		}
	case PPickCorners:
		var specs [3]dsp.BandPassSpec
		if err := json.Unmarshal(n.side, &specs); err != nil {
			return false
		}
		b.picks[i] = specs
		b.picked[i] = true
	}
	return true
}

// encodeSide serializes one node's side-channel payload for its journal
// record, mirroring storeNode's blob encoding (max-values text format,
// picked corners as JSON).  ok=false means the payload is not ready —
// journaling the node would hand resume an incomplete claim.
func (b *dfBuild) encodeSide(pid ProcessID, i int) ([]byte, bool) {
	switch pid {
	case PDefaultFilter, PCorrectedFilter:
		frag := b.fragsDef[i]
		if pid == PCorrectedFilter {
			frag = b.fragsCor[i]
		}
		var buf bytes.Buffer
		if err := frag.Write(&buf); err != nil {
			return nil, false
		}
		return buf.Bytes(), true
	case PPickCorners:
		if !b.picked[i] {
			return nil, false
		}
		data, err := json.Marshal(b.picks[i])
		if err != nil {
			return nil, false
		}
		return data, true
	}
	return nil, true
}

// journalNodeDone appends one node-done record to the run journal (a no-op
// when journaling is off), carrying the side-channel payload the node's
// join consumes, under a journal.append task span of the node's span.
func (b *dfBuild) journalNodeDone(node *obs.Span, pid ProcessID, st string, i int) {
	if b.s.journal == nil {
		return
	}
	defer node.Child("journal.append", obs.KindTask).End()
	side, ok := b.encodeSide(pid, i)
	if !ok {
		return
	}
	b.s.journal.nodeDone(pid, st, side)
}

// storeNode records one successfully executed per-record node's outputs
// under its action digest, handing Put the product paths to link rather
// than their bytes, under an artifact.put task span of the node's span.
// Best-effort in every direction: a missing output or a failed Put just
// forfeits a future hit.
func (b *dfBuild) storeNode(node *obs.Span, id artifact.ActionID, pid ProcessID, i int, st string) {
	defer node.Child("artifact.put", obs.KindTask).End()
	s := b.s
	names := nodeOutputNames(pid, st)
	blobs := make([]artifact.Blob, 0, len(names)+1)
	for _, name := range names {
		blobs = append(blobs, artifact.Blob{Name: name, Path: s.path(name)})
	}
	switch pid {
	case PDefaultFilter, PCorrectedFilter:
		frag := b.fragsDef[i]
		if pid == PCorrectedFilter {
			frag = b.fragsCor[i]
		}
		var buf bytes.Buffer
		if err := frag.Write(&buf); err != nil {
			return
		}
		blobs = append(blobs, artifact.Blob{Name: sideMaxValues, Data: buf.Bytes()})
	case PPickCorners:
		if !b.picked[i] {
			return
		}
		data, err := json.Marshal(b.picks[i])
		if err != nil {
			return
		}
		blobs = append(blobs, artifact.Blob{Name: sidePicks, Data: data})
	}
	_ = s.acache.Put(id, blobs)
}
