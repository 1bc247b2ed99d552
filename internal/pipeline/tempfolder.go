package pipeline

import (
	"errors"
	"fmt"
	"path/filepath"
	"syscall"

	"accelproc/internal/faults"
	"accelproc/internal/obs"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
)

// This file implements the temporary-folder execution protocol of the
// paper's section VI: the legacy Fortran filter and Fourier programs cannot
// be modified, so the fully parallelized version runs multiple instances of
// them concurrently, each inside its own scratch folder, staging input
// files in and output files back out.
//
// The protocol is written once, as a per-record job (tempJob) of four
// steps:
//
//  1. stage-in: create the scratch folder, copy in the files every instance
//     needs its own copy of, and move the record's input files in;
//  2. install-exe: copy the program executable into the folder;
//  3. execute: run the program inside the folder and move its products
//     (and the inputs later stages reuse) back to the work directory;
//  4. cleanup: delete the scratch folder.
//
// Processes #4, #7 and #13 all run it, as the rounds of steps.go's
// tempPhases.  FullParallel runs each step over every record as one
// barrier-closed layer of its graph — the install step as a *chained*
// layer, as the paper runs it sequentially "to avoid races" on the single
// executable image — and reports one task span per step.  Pipelined runs
// one record's four steps back to back as one dataflow node, so no record
// waits at a step barrier for its siblings.
//
// The "executable" is a simulated binary image: the Go implementations
// stand in for the Fortran programs, but the staging I/O — the real cost
// the protocol adds — is performed with genuine file copies.
//
// On top of the paper's protocol this implementation adds the robustness
// the paper assumes away: every staging operation and simulated execution
// goes through a faults.FS / exec gate (the plain OS in production, the
// fault injector under -chaos), failures are retried per RetryPolicy, and
// a record whose operations are exhausted or permanently failed is
// quarantined — its scratch folder preserved under <dir>/quarantine/ — so
// the event completes with the surviving records.
//
// The bytes moved across the scratch-folder boundary feed the
// bytes_staged_in_total / bytes_staged_out_total counters.  If any step
// fails (including cancellation), the scratch folders are removed before
// returning unless Options.KeepTempDirs asks for them.

// exeImageSize is the size of the simulated program executable that step 2
// installs into every scratch folder (legacy Fortran filter binaries are a
// few tens of kilobytes).
const exeImageSize = 64 * 1024

// exeImageName is the staged executable's file name inside scratch folders.
const exeImageName = "program.exe"

// ensureExeImage creates the simulated executable in the work directory if
// it does not exist yet and returns its path.
func (s *state) ensureExeImage() (string, error) {
	path := s.path("_filter.exe")
	if _, err := s.fs.Stat(path); err == nil {
		return path, nil
	}
	buf := make([]byte, exeImageSize)
	for i := range buf {
		buf[i] = byte(i * 2654435761)
	}
	if err := s.fs.WriteFile(path, buf, 0o755); err != nil {
		return "", err
	}
	return path, nil
}

// stageCopy copies src across the scratch-folder boundary through fsys,
// charging the copied bytes to the given staging counter on success only,
// so a retried copy is charged once.
func stageCopy(fsys faults.FS, dst, src string, c *obs.Counter) error {
	data, err := fsys.ReadFile(src)
	if err != nil {
		return err
	}
	if err := fsys.WriteFile(dst, data, 0o644); err != nil {
		return err
	}
	c.Add(float64(len(data)))
	return nil
}

// stageMove renames src across the scratch-folder boundary (the paper's
// pseudocode moves data files rather than copying them), charging the
// file's size to the given staging counter on success.  A rename that fails
// with EXDEV — scratch folders on a different filesystem than the work
// directory, e.g. a tmpfs — falls back to copy + remove.
func stageMove(fsys faults.FS, dst, src string, c *obs.Counter) error {
	// Crash points bracketing the stage-move boundary: dying before the
	// rename leaves the file on the source side, dying after leaves it on
	// the destination side — the resume validation must absorb both.
	faults.Crash(faults.CrashStageMove)
	size := int64(-1)
	if info, err := fsys.Stat(src); err == nil {
		size = info.Size()
	}
	if err := fsys.Rename(src, dst); err != nil {
		if !errors.Is(err, syscall.EXDEV) {
			return err
		}
		data, err := fsys.ReadFile(src)
		if err != nil {
			return err
		}
		if err := fsys.WriteFile(dst, data, 0o644); err != nil {
			return err
		}
		if err := fsys.Remove(src); err != nil {
			return err
		}
		size = int64(len(data))
	}
	if size >= 0 {
		c.Add(float64(size))
	}
	faults.Crash(faults.CrashStageMoved)
	return nil
}

// removeScratch deletes one scratch folder through fsys.  A failed removal
// is counted in scratch_cleanup_errors and then forced with the plain
// filesystem: cleanup accounting must not turn into scratch-dir leaks.
// Cache entries under the folder are dropped first — by this point every
// artifact worth keeping has been moved (and its entry renamed) out.
func (s *state) removeScratch(fsys faults.FS, dir string) {
	s.arts.InvalidateDir(dir)
	if err := fsys.RemoveAll(dir); err != nil {
		s.cleanupErr.Add(1)
		s.ws.RemoveAll(dir)
	}
}

// removeScratchDirs deletes the scratch folders after a failed protocol
// run, so an aborted or cancelled pipeline leaves no tmp_* litter in the
// work directory.  Removal failures are counted in scratch_cleanup_errors
// rather than silently ignored.
func (s *state) removeScratchDirs(dirs []string) {
	if s.opts.KeepTempDirs {
		return
	}
	for _, d := range dirs {
		if _, err := s.ws.Stat(d); err != nil {
			continue // already removed, or moved to quarantine
		}
		s.arts.InvalidateDir(d)
		if err := s.ws.RemoveAll(d); err != nil {
			s.cleanupErr.Add(1)
		}
	}
}

// tempJob is one record's instance of the temp-folder protocol.
type tempJob struct {
	rc      recordSite // rc.scratch is the job's scratch folder
	fsys    faults.FS
	exe     string   // the event's executable image, installed by step 2
	copyIn  []string // work-directory files every instance needs a copy of
	moveIn  []string // the record's input files
	moveOut []string // the products, and the inputs later stages reuse
	exec    func(dir string) error
}

// tempTags are the fault injector's stage tags of the temp-folder processes.
var tempTags = map[ProcessID]string{PDefaultFilter: "def", PFourier: "fou", PCorrectedFilter: "cor"}

// newTempJob builds the job of temp-folder process pid for station st, the
// idx-th surviving record.  The filter programs (#4, #13) take a copy of
// the parameter file and the three V1 components, and return the V2
// products, leaving the record's peaks in peaks; the Fourier program (#7)
// takes the three V2 files and returns the F products.  The inputs move
// back out with the products: the chain never modifies them — the
// rationale for dropping process #12 — and later stages reuse them.
func (s *state) newTempJob(pid ProcessID, idx int, st, exe string, peaks []seismic.PeakValues) *tempJob {
	tag := tempTags[pid]
	dir := s.path(fmt.Sprintf("tmp_%s_%02d_%s", tag, idx, st))
	j := &tempJob{
		rc:   recordSite{stage: StageOf(pid), proc: pid, tag: tag, station: st, scratch: dir},
		fsys: s.fsAt(tag, st),
		exe:  exe,
	}
	for _, comp := range seismic.Components {
		v1, v2 := smformat.V1ComponentFileName(st, comp), smformat.V2FileName(st, comp)
		if pid == PFourier {
			j.moveIn = append(j.moveIn, v2)
			j.moveOut = append(j.moveOut, smformat.FourierFileName(st, comp), v2)
		} else {
			j.moveIn = append(j.moveIn, v1)
			j.moveOut = append(j.moveOut, v2, v1)
		}
	}
	if pid == PFourier {
		j.exec = func(dir string) error { return s.fourierRecord(dir, st) }
	} else {
		j.copyIn = []string{smformat.FilterParamsFile}
		j.exec = func(dir string) error { return s.filterRecord(dir, st, peaks) }
	}
	return j
}

// tempStep is one step of the protocol, named by its task span.  A record
// failure inside a step quarantines the record (the step returns nil);
// only run-level failures are returned.  A sequential step runs as a
// chain over the records under FullParallel.
type tempStep struct {
	name       string
	sequential bool
	run        func(*state, *tempJob) error
}

// tempSteps returns the protocol's steps in order; KeepTempDirs drops the
// cleanup.
func (s *state) tempSteps() []tempStep {
	steps := []tempStep{
		{"stage-in", false, (*state).jobStageIn},
		{"install-exe", true, (*state).jobInstall},
		{"execute", false, (*state).jobExecute},
		{"cleanup", false, (*state).jobCleanup},
	}
	if s.opts.KeepTempDirs {
		steps = steps[:3]
	}
	return steps
}

func (s *state) jobStageIn(j *tempJob) error {
	dir := j.rc.scratch
	err := s.retryOp(j.rc, "mkdir", func() error { return j.fsys.MkdirAll(dir, 0o755) })
	if err == nil {
		err = s.transfer(j, "copy", j.copyIn, s.dir, dir, s.bytesIn)
	}
	if err == nil {
		err = s.transfer(j, "move", j.moveIn, s.dir, dir, s.bytesIn)
	}
	return s.degraded(j.rc, err)
}

func (s *state) jobInstall(j *tempJob) error {
	return s.degraded(j.rc, s.retryOp(j.rc, "copy", func() error {
		return s.copyArtifact(j.fsys, filepath.Join(j.rc.scratch, exeImageName), j.exe, s.bytesIn)
	}))
}

func (s *state) jobExecute(j *tempJob) error {
	// The whole program run is one retryable unit: a crashed instance is
	// re-run from its staged inputs, which the protocol leaves untouched
	// inside the scratch folder.
	err := s.retryOp(j.rc, "exec", func() error {
		if err := s.chaos.Exec(j.rc.tag, j.rc.station); err != nil {
			return err
		}
		return j.exec(j.rc.scratch)
	})
	if err == nil {
		err = s.transfer(j, "move", j.moveOut, j.rc.scratch, s.dir, s.bytesOut)
	}
	return s.degraded(j.rc, err)
}

func (s *state) jobCleanup(j *tempJob) error {
	s.removeScratch(j.fsys, j.rc.scratch)
	return nil
}

// transfer stages the named files from one folder to the other, op being
// "copy" or "move", retrying each operation and stopping at the first that
// fails for good.
func (s *state) transfer(j *tempJob, op string, names []string, from, to string, c *obs.Counter) error {
	for _, name := range names {
		src, dst := filepath.Join(from, name), filepath.Join(to, name)
		err := s.retryOp(j.rc, op, func() error {
			if op == "copy" {
				return s.copyArtifact(j.fsys, dst, src, c)
			}
			return s.moveArtifact(j.fsys, dst, src, c)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
