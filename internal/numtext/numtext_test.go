package numtext

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// randomInputs is the number of random inputs each differential test
// checks (the edge lists come on top).
func randomInputs() int {
	if testing.Short() {
		return 100_000
	}
	return 10_000_000
}

// edgeFloats lists values where a formatter or parser is most likely to
// slip: signed zeros, subnormals, the extremes, Inf and NaN, powers of two
// and ten with their neighbours, exact decimal ties at 18 significant
// digits (2^-27 = 7.450580596923828125e-09 has 19) and at two decimals
// (k/8), and the table's edges.
func edgeFloats() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, 0x1p-1022 - 5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		0.005, 0.015, 0.025, 1.005, 2.675, 0.125, 0.375, 1e-38, 1e17, 1e18, 9.999999999999999e17,
		99999999999999999, 999999999999999999, 0x1p56 / 100, 0x1p57 / 100, 0x1p58 / 100,
	}
	for e := -1074; e <= 1023; e++ {
		vs = append(vs, math.Ldexp(1, e), math.Ldexp(3, e-1), math.Ldexp(-5, e-2))
	}
	for e := -325; e <= 308; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		vs = append(vs, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), -p)
	}
	for i := 0; i < 8000; i++ {
		vs = append(vs, float64(i)/8, -float64(i)/8, (float64(i)+0.5)/100)
	}
	for m := 1; m < 2000; m += 2 {
		vs = append(vs, math.Ldexp(float64(m), -27), math.Ldexp(float64(m), -30), math.Ldexp(float64(m), -60))
	}
	return vs
}

// randomFloat draws from four mixes: arbitrary bit patterns (every
// exponent, NaN payloads included), arbitrary mantissas and signs with
// exponents from 2^lo to 2^hi (a helper's fast-path range and past its
// edges), small multiples of 1/8 (exact two-decimal ties), and neighbours
// of (n+0.5)/100.  Outside the range both sides of a comparison are
// strconv, so the arbitrary patterns get the smallest share.
func randomFloat(r *rand.Rand, lo, hi int) float64 {
	switch r.IntN(16) {
	case 0:
		return math.Float64frombits(r.Uint64())
	case 1, 2, 3, 4, 5, 6, 7, 8, 9:
		e := uint64(1023 + lo + r.IntN(hi-lo+1))
		return math.Float64frombits(r.Uint64()&(1<<63|1<<52-1) | e<<52)
	case 10, 11, 12:
		return float64(r.IntN(1<<20)-1<<19) / 8
	default:
		v := (float64(r.IntN(1<<20)) + 0.5) / 100
		return math.Nextafter(v, v+float64(r.IntN(3)-1))
	}
}

// The exponent ranges the differential tests draw from: AppendE17 and
// ParseFloat's fast paths cover about 1e-38 to 1e17 (2^-126 to 2^56),
// AppendFixed2's everything below 2^56/100, where values under 2^-8 all
// print as ±0.00.
const (
	e17Lo, e17Hi       = -140, 70
	fixed2Lo, fixed2Hi = -16, 60
)

// The check functions return "" when the helper agrees with strconv, else
// the mismatch.  They reuse the caller's scratch buffers, and leave
// t.Helper's stack walk to the failure path, so ten million checks stay
// cheap.

type scratch struct{ got, want []byte }

func (sc *scratch) e17(v float64) string {
	sc.got = AppendE17(sc.got[:0], v)
	sc.want = strconv.AppendFloat(sc.want[:0], v, 'e', 17, 64)
	if !bytes.Equal(sc.got, sc.want) {
		return fmt.Sprintf("AppendE17(%#016x) = %q, strconv %q", math.Float64bits(v), sc.got, sc.want)
	}
	return ""
}

func (sc *scratch) fixed2(v float64) string {
	sc.got = AppendFixed2(sc.got[:0], v)
	sc.want = strconv.AppendFloat(sc.want[:0], v, 'f', 2, 64)
	if !bytes.Equal(sc.got, sc.want) {
		return fmt.Sprintf("AppendFixed2(%#016x) = %q, strconv %q", math.Float64bits(v), sc.got, sc.want)
	}
	return ""
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// sameErr compares errors by their *strconv.NumError fields, which fix
// the error text, without building it.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	na, oka := a.(*strconv.NumError)
	nb, okb := b.(*strconv.NumError)
	return oka && okb && *na == *nb
}

// parse checks both instantiations, []byte and string.
func parse(s []byte) string {
	want, werr := strconv.ParseFloat(string(s), 64)
	if got, gerr := ParseFloat(s); !sameFloat(got, want) || !sameErr(gerr, werr) {
		return fmt.Sprintf("ParseFloat(%q) = %v (%#016x), %v; strconv %v (%#016x), %v",
			s, got, math.Float64bits(got), gerr, want, math.Float64bits(want), werr)
	}
	if got, gerr := ParseFloat(string(s)); !sameFloat(got, want) || !sameErr(gerr, werr) {
		return fmt.Sprintf("ParseFloat(string %q) = %v, %v; strconv %v, %v", s, got, gerr, want, werr)
	}
	return ""
}

func TestAppendE17MatchesStrconv(t *testing.T) {
	t.Parallel()
	var sc scratch
	for _, v := range edgeFloats() {
		if msg := sc.e17(v); msg != "" {
			t.Fatal(msg)
		}
	}
	r := rand.New(rand.NewPCG(1, 17))
	for i := randomInputs(); i > 0; i-- {
		if msg := sc.e17(randomFloat(r, e17Lo, e17Hi)); msg != "" {
			t.Fatal(msg)
		}
	}
}

func TestAppendFixed2MatchesStrconv(t *testing.T) {
	t.Parallel()
	var sc scratch
	for _, v := range edgeFloats() {
		if msg := sc.fixed2(v); msg != "" {
			t.Fatal(msg)
		}
	}
	r := rand.New(rand.NewPCG(2, 2))
	for i := randomInputs(); i > 0; i-- {
		if msg := sc.fixed2(randomFloat(r, fixed2Lo, fixed2Hi)); msg != "" {
			t.Fatal(msg)
		}
	}
}

// TestParseFloatMatchesStrconv feeds the parser canonical tokens of
// floats, canonical tokens whose 18 digits are random (so most are not a
// float's own text and land anywhere between two floats, near halfway
// included), and canonical tokens with one byte changed, which must take
// strconv's path and give its value and error.
func TestParseFloatMatchesStrconv(t *testing.T) {
	t.Parallel()
	for _, v := range edgeFloats() {
		if msg := parse(AppendE17(nil, v)); msg != "" {
			t.Fatal(msg)
		}
	}
	for _, s := range []string{
		"", "-", "1", "+1.00000000000000000e+00", "1.00000000000000000e+0", "1.00000000000000000e+000",
		"1.00000000000000000E+00", "1.0000000000000000e+00", "1.000000000000000000e+00", "1,00000000000000000e+00",
		"1.00000000000000000e 00", "--1.00000000000000000e+00", "1.00000000000000000e+99", "1.00000000000000000e-99",
		"9.99999999999999999e+72", "1.79769313486231571e+308", "4.94065645841246544e-324", "nan", "inf",
	} {
		if msg := parse([]byte(s)); msg != "" {
			t.Fatal(msg)
		}
	}
	r := rand.New(rand.NewPCG(3, 23))
	buf := make([]byte, 0, 32)
	for i := randomInputs(); i > 0; i-- {
		switch i % 3 {
		case 0:
			buf = AppendE17(buf[:0], randomFloat(r, e17Lo, e17Hi))
		case 1:
			buf = AppendE17(buf[:0], math.Ldexp(1+r.Float64(), r.IntN(250)-180))
			for j := 2; j < 19; j++ {
				buf[len(buf)-23+j] = byte('0' + r.IntN(10))
			}
		default:
			buf = AppendE17(buf[:0], randomFloat(r, e17Lo, e17Hi))
			buf[r.IntN(len(buf))] = byte(r.IntN(256))
		}
		if msg := parse(buf); msg != "" {
			t.Fatal(msg)
		}
	}
}

// TestPow10Table recomputes every table entry with math/big: the 128-bit
// mantissa of 10^q, truncated, in [2^127, 2^128), with pow10Exp2(q) its
// binary exponent.
func TestPow10Table(t *testing.T) {
	ten := big.NewInt(10)
	for q := pow10Min; q <= pow10Max; q++ {
		num, den := big.NewInt(1), big.NewInt(1)
		if q >= 0 {
			num.Exp(ten, big.NewInt(int64(q)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(-q)), nil)
		}
		if e := pow10Exp2(q); e < 0 {
			num.Lsh(num, uint(-e))
		} else {
			den.Lsh(den, uint(e))
		}
		m := new(big.Int).Quo(num, den)
		want := [2]uint64{new(big.Int).Rsh(m, 64).Uint64(), m.Uint64()}
		if m.BitLen() != 128 || pow10[q-pow10Min] != want {
			t.Errorf("pow10[1e%d] = %#016x, want %#016x (mantissa bits %d)", q, pow10[q-pow10Min], want, m.BitLen())
		}
	}
}

// The fuzzers compare each helper with strconv on arbitrary float64 bits
// and arbitrary byte strings.

func FuzzAppendE17(f *testing.F) {
	for _, v := range []float64{0, 1, -1.5, 7.450580596923828125e-09, 1e17, 1e-38, math.MaxFloat64, 5e-324, math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		if msg := new(scratch).e17(math.Float64frombits(b)); msg != "" {
			t.Fatal(msg)
		}
	})
}

func FuzzAppendFixed2(f *testing.F) {
	for _, v := range []float64{0, 0.125, 0.375, -0.001, 2.675, 612, 0x1p56 / 100, math.Inf(1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		if msg := new(scratch).fixed2(math.Float64frombits(b)); msg != "" {
			t.Fatal(msg)
		}
	})
}

func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{"1.00000000000000000e+00", "-7.45058059692382812e-09", "0.00000000000000000e+00", "1e5", "x", ""} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		if msg := parse(s); msg != "" {
			t.Fatal(msg)
		}
	})
}

var sinkBytes []byte
var sinkFloat float64

// benchValues are acceleration-like samples: the magnitudes a corrected
// record's payload holds.
func benchValues() []float64 {
	r := rand.New(rand.NewPCG(4, 4))
	vs := make([]float64, 1024)
	for i := range vs {
		vs[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.IntN(8)-4))
	}
	return vs
}

func BenchmarkAppendE17(b *testing.B) {
	vs := benchValues()
	buf := make([]byte, 0, 32)
	for i := 0; i < b.N; i++ {
		buf = AppendE17(buf[:0], vs[i%len(vs)])
	}
	sinkBytes = buf
}

func BenchmarkStrconvE17(b *testing.B) {
	vs := benchValues()
	buf := make([]byte, 0, 32)
	for i := 0; i < b.N; i++ {
		buf = strconv.AppendFloat(buf[:0], vs[i%len(vs)], 'e', 17, 64)
	}
	sinkBytes = buf
}

func BenchmarkAppendFixed2(b *testing.B) {
	vs := benchValues()
	buf := make([]byte, 0, 32)
	for i := 0; i < b.N; i++ {
		buf = AppendFixed2(buf[:0], 300*vs[i%len(vs)])
	}
	sinkBytes = buf
}

func BenchmarkStrconvFixed2(b *testing.B) {
	vs := benchValues()
	buf := make([]byte, 0, 32)
	for i := 0; i < b.N; i++ {
		buf = strconv.AppendFloat(buf[:0], 300*vs[i%len(vs)], 'f', 2, 64)
	}
	sinkBytes = buf
}

func benchTokens() [][]byte {
	vs := benchValues()
	toks := make([][]byte, len(vs))
	for i, v := range vs {
		toks[i] = AppendE17(nil, v)
	}
	return toks
}

func BenchmarkParseFloat(b *testing.B) {
	toks := benchTokens()
	for i := 0; i < b.N; i++ {
		sinkFloat, _ = ParseFloat(toks[i%len(toks)])
	}
}

func BenchmarkStrconvParseFloat(b *testing.B) {
	toks := benchTokens()
	strs := make([]string, len(toks))
	for i, tk := range toks {
		strs[i] = string(tk)
	}
	for i := 0; i < b.N; i++ {
		sinkFloat, _ = strconv.ParseFloat(strs[i%len(strs)], 64)
	}
}
