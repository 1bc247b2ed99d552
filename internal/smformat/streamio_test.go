package smformat

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"accelproc/internal/seismic"
)

// testStreamFS satisfies StreamFS over a plain directory for the identity
// tests.
type testStreamFS struct{ dir string }

func (f testStreamFS) ReadFile(p string) ([]byte, error) {
	return os.ReadFile(filepath.Join(f.dir, p))
}
func (f testStreamFS) WriteFile(p string, b []byte, m os.FileMode) error {
	return os.WriteFile(filepath.Join(f.dir, p), b, m)
}
func (f testStreamFS) Open(p string) (io.ReadCloser, error) {
	return os.Open(filepath.Join(f.dir, p))
}
func (f testStreamFS) Create(p string) (io.WriteCloser, error) {
	return os.Create(filepath.Join(f.dir, p))
}

func randomValues(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = rng.NormFloat64() * 100
	}
	return vs
}

// feedChunks drives f over vs in uneven chunk sizes.
func feedChunks(vs []float64, f func([]float64) error) error {
	sizes := []int{1, 7, 64, 1000}
	i, s := 0, 0
	for i < len(vs) {
		sz := sizes[s%len(sizes)]
		s++
		end := i + sz
		if end > len(vs) {
			end = len(vs)
		}
		if err := f(vs[i:end]); err != nil {
			return err
		}
		i = end
	}
	return nil
}

func TestV1ComponentStreamWriterByteIdentity(t *testing.T) {
	fsys := testStreamFS{dir: t.TempDir()}
	for _, npts := range []int{1, 3, 4, 5, 1000} {
		v := V1Component{Station: "ST01", Component: seismic.Transversal, DT: 0.005, Accel: randomValues(npts, int64(npts))}
		var want bytes.Buffer
		if err := v.Write(&want); err != nil {
			t.Fatal(err)
		}
		w, err := NewV1ComponentStreamWriter(fsys, "st01t.v1", v.Station, v.Component, v.DT, npts)
		if err != nil {
			t.Fatal(err)
		}
		if err := feedChunks(v.Accel, w.Append); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := fsys.ReadFile("st01t.v1")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("npts=%d: streamed V1 component differs from batch write", npts)
		}
	}
}

func TestV1ChunkReaderMatchesParse(t *testing.T) {
	fsys := testStreamFS{dir: t.TempDir()}
	for _, npts := range []int{1, 5, 4096} {
		v := V1{Station: "CHNK", DT: 0.005}
		for ci := range v.Accel {
			v.Accel[ci] = randomValues(npts, int64(100*npts+ci))
		}
		if err := WriteV1FileFS(fsys, "chnk.v1", v); err != nil {
			t.Fatal(err)
		}
		r, err := OpenV1Chunks(fsys, "chnk.v1")
		if err != nil {
			t.Fatal(err)
		}
		if r.Station != v.Station || r.DT != v.DT || r.NPTS != npts {
			t.Fatalf("npts=%d: chunk reader headers %q/%g/%d", npts, r.Station, r.DT, r.NPTS)
		}
		for ci, comp := range seismic.Components {
			got, err := r.NextComponent()
			if err != nil {
				t.Fatal(err)
			}
			if got != comp {
				t.Fatalf("component %d is %v, want %v", ci, got, comp)
			}
			var all []float64
			buf := make([]float64, 37)
			for {
				n, err := r.Read(buf)
				all = append(all, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(all) != npts {
				t.Fatalf("component %v: %d samples, want %d", comp, len(all), npts)
			}
			for i := range all {
				if all[i] != v.Accel[ci][i] {
					t.Fatalf("component %v sample %d: %v != %v", comp, i, all[i], v.Accel[ci][i])
				}
			}
		}
		if _, err := r.NextComponent(); err != io.EOF {
			t.Fatalf("after last component: %v, want io.EOF", err)
		}
		r.Close()
	}
}

func TestWriteFileCreateFSByteIdentity(t *testing.T) {
	fsys := testStreamFS{dir: t.TempDir()}
	v := V2{
		Station: "EQ", Component: seismic.Longitudinal, DT: 0.02,
		Accel: randomValues(33, 4), Vel: randomValues(33, 5), Disp: randomValues(33, 6),
	}
	if err := WriteV2FileFS(fsys, "batch.v2", v); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileCreateFS(fsys, "stream.v2", v); err != nil {
		t.Fatal(err)
	}
	batch, _ := fsys.ReadFile("batch.v2")
	streamed, _ := fsys.ReadFile("stream.v2")
	if !bytes.Equal(batch, streamed) {
		t.Fatal("Create-routed write differs from WriteFile-routed write")
	}
}
