package smformat

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accelproc/internal/seismic"
	"accelproc/internal/storage"
)

// Failure injection: every parser must reject corrupted inputs with an
// error rather than panicking or returning garbage.

func TestParsersRejectEmptyAndForeignInput(t *testing.T) {
	inputs := []string{
		"",
		"\n",
		"GARBAGE HEADER\nmore garbage\n",
		"STRONG-MOTION UNCORRECTED RECORD V99\n",
	}
	for _, in := range inputs {
		if _, err := ParseV1(strings.NewReader(in)); err == nil {
			t.Errorf("ParseV1 accepted %q", in)
		}
		if _, err := ParseV1Component(strings.NewReader(in)); err == nil {
			t.Errorf("ParseV1Component accepted %q", in)
		}
		if _, err := ParseV2(strings.NewReader(in)); err == nil {
			t.Errorf("ParseV2 accepted %q", in)
		}
		if _, err := ParseFourier(strings.NewReader(in)); err == nil {
			t.Errorf("ParseFourier accepted %q", in)
		}
		if _, err := ParseResponse(strings.NewReader(in)); err == nil {
			t.Errorf("ParseResponse accepted %q", in)
		}
		if _, err := ParseGEM(strings.NewReader(in)); err == nil {
			t.Errorf("ParseGEM accepted %q", in)
		}
		if _, err := ParseFileList(strings.NewReader(in)); err == nil {
			t.Errorf("ParseFileList accepted %q", in)
		}
		if _, err := ParseFilterParams(strings.NewReader(in)); err == nil {
			t.Errorf("ParseFilterParams accepted %q", in)
		}
		if _, err := ParseMaxValues(strings.NewReader(in)); err == nil {
			t.Errorf("ParseMaxValues accepted %q", in)
		}
	}
}

// mutateLines returns variants of the serialized form with one line each
// truncated, to exercise mid-file corruption handling.
func truncations(data []byte) [][]byte {
	lines := bytes.Split(data, []byte("\n"))
	var out [][]byte
	step := len(lines)/8 + 1
	for i := 1; i < len(lines); i += step {
		out = append(out, bytes.Join(lines[:i], []byte("\n")))
	}
	return out
}

func TestV1ParserRejectsTruncation(t *testing.T) {
	v := sampleV1(rand.New(rand.NewSource(3)))
	var buf bytes.Buffer
	if err := v.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for i, tr := range truncations(buf.Bytes()) {
		if _, err := ParseV1(bytes.NewReader(tr)); err == nil {
			t.Errorf("truncation %d accepted", i)
		}
	}
}

func TestV2ParserRejectsTruncation(t *testing.T) {
	v := sampleV2(rand.New(rand.NewSource(4)))
	var buf bytes.Buffer
	if err := v.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for i, tr := range truncations(buf.Bytes()) {
		if _, err := ParseV2(bytes.NewReader(tr)); err == nil {
			t.Errorf("truncation %d accepted", i)
		}
	}
}

func TestResponseParserRejectsTruncation(t *testing.T) {
	v := sampleResponse(rand.New(rand.NewSource(5)))
	var buf bytes.Buffer
	if err := v.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for i, tr := range truncations(buf.Bytes()) {
		if _, err := ParseResponse(bytes.NewReader(tr)); err == nil {
			t.Errorf("truncation %d accepted", i)
		}
	}
}

func TestParserRejectsNonNumericPayload(t *testing.T) {
	v := sampleV1(rand.New(rand.NewSource(6)))
	var buf bytes.Buffer
	if err := v.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// Replace the first numeric payload character we find after the headers.
	data := buf.String()
	idx := strings.Index(data, "COMPONENT: longitudinal\n")
	if idx < 0 {
		t.Fatal("component header not found")
	}
	corrupted := data[:idx+len("COMPONENT: longitudinal\n")] + "NOT_A_NUMBER " + data[idx+len("COMPONENT: longitudinal\n")+13:]
	if _, err := ParseV1(strings.NewReader(corrupted)); err == nil {
		t.Error("non-numeric payload accepted")
	}
}

func TestParserRejectsBadCounts(t *testing.T) {
	cases := []string{
		"STRONG-MOTION UNCORRECTED RECORD V1\nSTATION: A\nDT: 0.01\nNPTS: 0\nUNITS: gal\n",
		"STRONG-MOTION UNCORRECTED RECORD V1\nSTATION: A\nDT: 0.01\nNPTS: -5\nUNITS: gal\n",
		"STRONG-MOTION UNCORRECTED RECORD V1\nSTATION: A\nDT: 0.01\nNPTS: xyz\nUNITS: gal\n",
	}
	for i, in := range cases {
		if _, err := ParseV1(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestParseFilterParamsRejectsDuplicates(t *testing.T) {
	in := "FILTER PARAMETERS\n" +
		"DEFAULT - 1e-01 2.5e-01 2.3e+01 2.5e+01\n" +
		"NSIGNALS: 2\n" +
		"A l 1e-01 2.5e-01 2.3e+01 2.5e+01\n" +
		"A l 2e-01 3.5e-01 2.3e+01 2.5e+01\n"
	if _, err := ParseFilterParams(strings.NewReader(in)); err == nil {
		t.Error("duplicate signal entries accepted")
	}
}

func TestParseMaxValuesRejectsMalformedLines(t *testing.T) {
	in := "MAX VALUES\nNSIGNALS: 1\nA l 1 2 3\n" // 5 fields, want 8
	if _, err := ParseMaxValues(strings.NewReader(in)); err == nil {
		t.Error("short max-values line accepted")
	}
	in = "MAX VALUES\nNSIGNALS: 1\nA q 1 2 3 4 5 6\n" // bad component
	if _, err := ParseMaxValues(strings.NewReader(in)); err == nil {
		t.Error("bad component accepted")
	}
}

func TestWriteRejectsInvalidStructs(t *testing.T) {
	var buf bytes.Buffer
	if err := (V1{}).Write(&buf); err == nil {
		t.Error("zero V1 accepted")
	}
	if err := (V2{Station: "A", DT: 0.01, Accel: []float64{1}, Vel: []float64{1}}).Write(&buf); err == nil {
		t.Error("V2 with missing disp accepted")
	}
	if err := (Response{Station: "A", Damping: 0.05, Periods: []float64{2, 1}, SA: []float64{1, 1}, SV: []float64{1, 1}, SD: []float64{1, 1}}).Write(&buf); err == nil {
		t.Error("non-monotonic periods accepted")
	}
	if err := (Response{Station: "A", Damping: math.NaN(), Periods: []float64{1}, SA: []float64{1}, SV: []float64{1}, SD: []float64{1}}).Write(&buf); err == nil {
		t.Error("NaN damping accepted")
	}
	for _, p := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		if err := (Response{Station: "A", Damping: 0.05, Periods: []float64{p}, SA: []float64{1}, SV: []float64{1}, SD: []float64{1}}).Write(&buf); err == nil {
			t.Errorf("period %g accepted", p)
		}
	}
	if err := (GEM{Station: "A", Kind: 'X', Quantity: 'A', Abscissa: []float64{1}, Values: []float64{1}}).Write(&buf); err == nil {
		t.Error("bad GEM kind accepted")
	}
	if err := (Fourier{Station: "A", DF: -1, Accel: []float64{1}, Vel: []float64{1}, Disp: []float64{1}}).Write(&buf); err == nil {
		t.Error("negative DF accepted")
	}
}

func TestFileHelpersRoundTrip(t *testing.T) {
	dir := t.TempDir()
	v := sampleV1(rand.New(rand.NewSource(11)))
	path := filepath.Join(dir, V1FileName(v.Station))
	if err := WriteV1File(path, v); err != nil {
		t.Fatal(err)
	}
	got, err := ReadV1File(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Station != v.Station || len(got.Accel[0]) != len(v.Accel[0]) {
		t.Errorf("file round trip mismatch")
	}
}

// TestWriteFileReplacesInode pins the path-only writers' temp-then-rename:
// overwriting a product that shares its inode with a hardlink (as the
// artifact cache stages them) must bind the path to a fresh inode, leave the
// other name's bytes alone, leave no temp file behind, and write the same
// bytes as the workspace writer.
func TestWriteFileReplacesInode(t *testing.T) {
	dir := t.TempDir()
	v := sampleV1(rand.New(rand.NewSource(13)))
	path := filepath.Join(dir, V1FileName(v.Station))
	link := filepath.Join(dir, "blob")
	old := []byte("cached bytes")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(path, link); err != nil {
		t.Skipf("hardlinks unsupported: %v", err)
	}
	if err := WriteV1File(path, v); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(link); err != nil || !bytes.Equal(got, old) {
		t.Errorf("hardlinked name = %q, %v; want its old bytes", got, err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left: %v", tmps)
	}
	ref := filepath.Join(dir, "ref.v1")
	if err := WriteV1FileFS(storage.OS{}, ref, v); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("WriteV1File bytes differ from WriteV1FileFS(storage.OS{})")
	}
}

func TestReadFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadV1File(filepath.Join(dir, "missing.v1")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.v1")
	if err := os.WriteFile(bad, []byte("not a v1 file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadV1File(bad); err == nil {
		t.Error("garbage file accepted")
	}
}

func TestWriteFileToUnwritableDir(t *testing.T) {
	v := sampleV1(rand.New(rand.NewSource(12)))
	err := WriteV1File(filepath.Join(t.TempDir(), "no", "such", "dir", "x.v1"), v)
	if err == nil {
		t.Error("write into missing directory succeeded")
	}
}

func TestCanonicalFileNames(t *testing.T) {
	if got := V1FileName("SS01"); got != "SS01.v1" {
		t.Errorf("V1FileName = %q", got)
	}
	if got := V1ComponentFileName("SS01", seismic.Transversal); got != "SS01t.v1" {
		t.Errorf("V1ComponentFileName = %q", got)
	}
	if got := V2FileName("SS01", seismic.Vertical); got != "SS01v.v2" {
		t.Errorf("V2FileName = %q", got)
	}
	if got := FourierFileName("SS01", seismic.Longitudinal); got != "SS01l.f" {
		t.Errorf("FourierFileName = %q", got)
	}
	if got := ResponseFileName("SS01", seismic.Longitudinal); got != "SS01l.r" {
		t.Errorf("ResponseFileName = %q", got)
	}
	if got := AccelPlotFileName("SS01"); got != "SS01.ps" {
		t.Errorf("AccelPlotFileName = %q", got)
	}
	if got := FourierPlotFileName("SS01"); got != "SS01f.ps" {
		t.Errorf("FourierPlotFileName = %q", got)
	}
	if got := ResponsePlotFileName("SS01"); got != "SS01r.ps" {
		t.Errorf("ResponsePlotFileName = %q", got)
	}
}
