package smformat

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"accelproc/internal/dsp"
	"accelproc/internal/seismic"
)

func benchV2(n int) V2 {
	rng := rand.New(rand.NewSource(7))
	return V2{
		Station:   "SS01",
		Component: seismic.Longitudinal,
		DT:        0.01,
		Filter:    dsp.BandPassSpec{FSL: 0.1, FPL: 0.25, FPH: 23, FSH: 25},
		Accel:     randData(rng, n),
		Vel:       randData(rng, n),
		Disp:      randData(rng, n),
	}
}

// BenchmarkWriteV2 measures serialization of the pipeline's dominant I/O
// product at typical record lengths.
func BenchmarkWriteV2(b *testing.B) {
	for _, n := range []int{7300, 20000} {
		n := n
		v := benchV2(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := v.Write(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

func BenchmarkParseV2(b *testing.B) {
	v := benchV2(20000)
	var buf bytes.Buffer
	if err := v.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseV2(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkV1Write(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	v := V1{
		Station: "SS01",
		DT:      0.01,
		Accel:   [3][]float64{randData(rng, 20000), randData(rng, 20000), randData(rng, 20000)},
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := v.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// TestV2AllocContract56K pins the allocation behavior of the hot codec on a
// long record (56K points, the upper end of the paper's event files):
//
//   - Write appends every line straight into the bufio.Writer's free
//     space, so its alloc count is a small constant — independent of record
//     length.
//   - Parse scans the scanner's own line bytes and parses tokens in place,
//     so it allocates only the payload slices and headers: a small constant
//     too.
//
// The bounds are contracts, not measurements: a regression that reintroduces
// per-value or extra per-line allocation trips them immediately.
func TestV2AllocContract56K(t *testing.T) {
	const n = 56000
	v := benchV2(n)
	var buf bytes.Buffer
	if err := v.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	lines := bytes.Count(data, []byte("\n"))

	writeAllocs := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := v.Write(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if writeAllocs > 64 {
		t.Errorf("V2.Write(56K points) = %.0f allocs/op, want a small constant (<= 64)", writeAllocs)
	}

	parseAllocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseV2(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if parseAllocs > 64 {
		t.Errorf("ParseV2(56K points) = %.0f allocs/op over %d lines, want a small constant (<= 64)", parseAllocs, lines)
	}
}

func BenchmarkGEMWrite(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := 20000
	t := make([]float64, n)
	for i := range t {
		t[i] = float64(i) * 0.01
	}
	g := GEM{
		Station: "SS01", Component: seismic.Longitudinal,
		Kind: GEMFromV2, Quantity: GEMAcceleration,
		Abscissa: t, Values: randData(rng, n),
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := g.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
