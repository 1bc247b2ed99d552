package smformat

import (
	"os"

	"accelproc/internal/seismic"
)

// Canonical file names used throughout the pipeline (paper Figure 5).

// V1FileName returns "<station>.v1".
func V1FileName(station string) string { return station + ".v1" }

// V1ComponentFileName returns "<station><c>.v1".
func V1ComponentFileName(station string, c seismic.Component) string {
	return station + c.Suffix() + ".v1"
}

// V2FileName returns "<station><c>.v2".
func V2FileName(station string, c seismic.Component) string {
	return station + c.Suffix() + ".v2"
}

// FourierFileName returns "<station><c>.f".
func FourierFileName(station string, c seismic.Component) string {
	return station + c.Suffix() + ".f"
}

// ResponseFileName returns "<station><c>.r".
func ResponseFileName(station string, c seismic.Component) string {
	return station + c.Suffix() + ".r"
}

// Metadata file names (fixed, one per work directory).
const (
	V1ListFile        = "v1list.meta"
	FilterParamsFile  = "filterparams.meta"
	AccGraphFile      = "acc-graph.meta"
	FourierMetaFile   = "fourier.meta"
	ResponseMetaFile  = "response.meta"
	FourierGraphFile  = "fourier-graph.meta"
	ResponseGraphFile = "response-graph.meta"
	MaxValuesFile     = "maxvalues.meta"
	FlagsFile         = "flags.meta"
)

// Plot file names (PostScript, as in the legacy chain).

// AccelPlotFileName returns "<station>.ps".
func AccelPlotFileName(station string) string { return station + ".ps" }

// FourierPlotFileName returns "<station>f.ps".
func FourierPlotFileName(station string) string { return station + "f.ps" }

// ResponsePlotFileName returns "<station>r.ps".
func ResponsePlotFileName(station string) string { return station + "r.ps" }

// osFS is the FS the path-only wrappers below go through: the plain
// filesystem, with each write landing in a sibling temp file that is renamed
// into place.  The destination therefore only ever holds a complete file,
// and an overwrite binds the path to a fresh inode instead of truncating one
// the destination may share with a hardlink (the artifact cache stages
// products that way).
type osFS struct{}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, perm); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteV1File writes a multiplexed V1 to path.
func WriteV1File(path string, v V1) error { return WriteV1FileFS(osFS{}, path, v) }

// WriteV2File writes a V2 to path.
func WriteV2File(path string, v V2) error { return WriteV2FileFS(osFS{}, path, v) }

// ReadV1File parses the multiplexed V1 at path.
func ReadV1File(path string) (V1, error) { return ReadV1FileFS(osFS{}, path) }

// ReadV1ComponentFile parses the per-component V1 at path.
func ReadV1ComponentFile(path string) (V1Component, error) {
	return ReadV1ComponentFileFS(osFS{}, path)
}

// ReadV2File parses the V2 at path.
func ReadV2File(path string) (V2, error) { return ReadV2FileFS(osFS{}, path) }

// ReadResponseFile parses the R file at path.
func ReadResponseFile(path string) (Response, error) { return ReadResponseFileFS(osFS{}, path) }

// ReadMaxValuesFile parses the max-values file at path.
func ReadMaxValuesFile(path string) (MaxValues, error) { return ReadMaxValuesFileFS(osFS{}, path) }
