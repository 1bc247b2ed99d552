package seismic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randRecord(seed int64, n int) Record {
	rng := rand.New(rand.NewSource(seed))
	var rec Record
	rec.Station = "RT01"
	for ci := range rec.Accel {
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64() * 10
		}
		rec.Accel[ci] = Trace{DT: 0.01, Data: data}
	}
	return rec
}

func TestRotateHorizontalIdentity(t *testing.T) {
	rec := randRecord(1, 500)
	for _, deg := range []float64{0, 360, -360} {
		got, err := RotateHorizontal(rec, deg)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range rec.Accel {
			for i := range rec.Accel[ci].Data {
				if math.Abs(got.Accel[ci].Data[i]-rec.Accel[ci].Data[i]) > 1e-9 {
					t.Fatalf("deg=%g comp %d sample %d changed", deg, ci, i)
				}
			}
		}
	}
}

func TestRotateHorizontalInverse(t *testing.T) {
	rec := randRecord(2, 400)
	fwd, err := RotateHorizontal(rec, 37)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RotateHorizontal(fwd, -37)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range rec.Accel {
		for i := range rec.Accel[ci].Data {
			if math.Abs(back.Accel[ci].Data[i]-rec.Accel[ci].Data[i]) > 1e-9 {
				t.Fatalf("comp %d sample %d not restored", ci, i)
			}
		}
	}
}

// Property: rotation preserves per-sample horizontal vector magnitude and
// leaves the vertical untouched.
func TestRotateHorizontalPreservesEnergy(t *testing.T) {
	f := func(seed int64, degRaw int16) bool {
		rec := randRecord(seed, 100)
		deg := float64(degRaw % 720)
		got, err := RotateHorizontal(rec, deg)
		if err != nil {
			return false
		}
		for i := range rec.Accel[0].Data {
			m0 := math.Hypot(rec.Accel[0].Data[i], rec.Accel[1].Data[i])
			m1 := math.Hypot(got.Accel[0].Data[i], got.Accel[1].Data[i])
			if math.Abs(m0-m1) > 1e-9*(m0+1) {
				return false
			}
			if got.Accel[2].Data[i] != rec.Accel[2].Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRotateHorizontalRejectsInvalid(t *testing.T) {
	if _, err := RotateHorizontal(Record{}, 30); err == nil {
		t.Error("invalid record accepted")
	}
}
