package smformat

import (
	"bytes"
	"fmt"
	"io"
	"os"
)

// FS is the minimal storage surface the format codecs need.  It is satisfied
// structurally by any workspace backend (see internal/storage) without this
// package importing one; files.go's osFS serves the path-only wrappers.
// Atomicity of WriteFile (temp + rename or an in-memory swap) is the
// backend's concern.
type FS interface {
	ReadFile(path string) ([]byte, error)
	WriteFile(path string, data []byte, perm os.FileMode) error
}

// writeFileFS renders v to a buffer and hands the complete payload to the
// backend in one WriteFile call.
func writeFileFS(fsys FS, path string, v StreamWritable) error {
	var buf bytes.Buffer
	if err := v.Write(&buf); err != nil {
		return fmt.Errorf("smformat: write %s: %w", path, err)
	}
	if err := fsys.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("smformat: write %s: %w", path, err)
	}
	return nil
}

// readFileFS reads path through the backend and parses it with parse.
func readFileFS[T any](fsys FS, path string, parse func(io.Reader) (T, error)) (T, error) {
	var zero T
	data, err := fsys.ReadFile(path)
	if err != nil {
		return zero, fmt.Errorf("smformat: open %s: %w", path, err)
	}
	v, err := parse(bytes.NewReader(data))
	if err != nil {
		return zero, fmt.Errorf("smformat: parse %s: %w", path, err)
	}
	return v, nil
}

// WriteV1FileFS writes a multiplexed V1 to path through fsys.
func WriteV1FileFS(fsys FS, path string, v V1) error { return writeFileFS(fsys, path, v) }

// WriteV1ComponentFileFS writes a per-component V1 to path through fsys.
func WriteV1ComponentFileFS(fsys FS, path string, v V1Component) error {
	return writeFileFS(fsys, path, v)
}

// WriteV2FileFS writes a V2 to path through fsys.
func WriteV2FileFS(fsys FS, path string, v V2) error { return writeFileFS(fsys, path, v) }

// WriteFourierFileFS writes an F file to path through fsys.
func WriteFourierFileFS(fsys FS, path string, f Fourier) error { return writeFileFS(fsys, path, f) }

// WriteResponseFileFS writes an R file to path through fsys.
func WriteResponseFileFS(fsys FS, path string, r Response) error { return writeFileFS(fsys, path, r) }

// WriteGEMFileFS writes a GEM export to path through fsys.
func WriteGEMFileFS(fsys FS, path string, g GEM) error { return writeFileFS(fsys, path, g) }

// WriteFileListFileFS writes a file list to path through fsys.
func WriteFileListFileFS(fsys FS, path string, l FileList) error { return writeFileFS(fsys, path, l) }

// WriteFilterParamsFileFS writes a filter-parameter file to path through fsys.
func WriteFilterParamsFileFS(fsys FS, path string, p FilterParams) error {
	return writeFileFS(fsys, path, p)
}

// WriteMaxValuesFileFS writes a max-values file to path through fsys.
func WriteMaxValuesFileFS(fsys FS, path string, m MaxValues) error { return writeFileFS(fsys, path, m) }

// ReadV1FileFS parses the multiplexed V1 at path through fsys.
func ReadV1FileFS(fsys FS, path string) (V1, error) { return readFileFS(fsys, path, ParseV1) }

// ReadV1ComponentFileFS parses the per-component V1 at path through fsys.
func ReadV1ComponentFileFS(fsys FS, path string) (V1Component, error) {
	return readFileFS(fsys, path, ParseV1Component)
}

// ReadV2FileFS parses the V2 at path through fsys.
func ReadV2FileFS(fsys FS, path string) (V2, error) { return readFileFS(fsys, path, ParseV2) }

// ReadFourierFileFS parses the F file at path through fsys.
func ReadFourierFileFS(fsys FS, path string) (Fourier, error) {
	return readFileFS(fsys, path, ParseFourier)
}

// ReadResponseFileFS parses the R file at path through fsys.
func ReadResponseFileFS(fsys FS, path string) (Response, error) {
	return readFileFS(fsys, path, ParseResponse)
}

// ReadFileListFileFS parses the file list at path through fsys.
func ReadFileListFileFS(fsys FS, path string) (FileList, error) {
	return readFileFS(fsys, path, ParseFileList)
}

// ReadFilterParamsFileFS parses the filter-parameter file at path through fsys.
func ReadFilterParamsFileFS(fsys FS, path string) (FilterParams, error) {
	return readFileFS(fsys, path, ParseFilterParams)
}

// ReadMaxValuesFileFS parses the max-values file at path through fsys.
func ReadMaxValuesFileFS(fsys FS, path string) (MaxValues, error) {
	return readFileFS(fsys, path, ParseMaxValues)
}
