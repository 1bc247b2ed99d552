// Package numtext formats and parses the float64 text of the pipeline's
// file formats faster than strconv, with exactly strconv's results.
//
// Every payload number the formats write is strconv's 'e' format at
// precision 17 (18 significant digits, enough for exact round trips), and
// the PostScript plots write coordinates as 'f' at precision 2.  The three
// functions here produce the same bytes, values and errors as those strconv
// calls on every input:
//
//   - AppendE17 computes the 18-digit decimal of v·10^k exactly from a
//     128-bit table entry of 10^k, so its rounding (half to even) is never
//     in doubt.  Values whose k falls outside the table's exact half
//     (|v| below about 1e-38 or above about 1e17), subnormals, Inf and NaN
//     go to strconv.
//   - AppendFixed2 rounds v·100 = m·25·2^e exactly, half to even, and goes
//     to strconv only for Inf, NaN and |v| ≥ 2^56/100.
//   - ParseFloat reads the canonical token AppendE17 writes,
//     [-]d.ddddddddddddddddde±dd, with one Eisel–Lemire step on the same
//     table.  Any other token, a decimal exponent outside the table, and
//     the rare product Eisel–Lemire cannot settle go to strconv, so values
//     and error texts are strconv's.
package numtext

import (
	"math"
	"math/bits"
	"strconv"
)

// pow10Exp2 returns the binary exponent of table entry q:
// floor(q·log2(10)) - 127 (exact for |q| < 1600).
func pow10Exp2(q int) int { return (217706*q)>>16 - 127 }

// AppendE17 appends v formatted as strconv.AppendFloat(dst, v, 'e', 17, 64)
// does.
func AppendE17(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7FF
	mant := b & (1<<52 - 1)
	if exp == 0 && mant == 0 {
		if b>>63 != 0 {
			dst = append(dst, '-')
		}
		return append(dst, "0.00000000000000000e+00"...)
	}
	// v = m·2^e2 with 2^52 ≤ m < 2^53; e10 = floor(log10(2^(e2+52))) is
	// floor(log10|v|) or one less, so x = |v|·10^(17-e10) lies in
	// [10^17, 10^19).
	m := mant | 1<<52
	e2 := exp - 1075
	e10 := (e2 + 52) * 78913 >> 18
	k := 17 - e10
	if exp == 0 || exp == 0x7FF || k < 0 || k > pow10Max {
		return strconv.AppendFloat(dst, v, 'e', 17, 64)
	}
	// The product m·10^k is exact in 192 bits (p2:p1:p0), and x is it
	// shifted right by 64+t bits with t in [52, 60].
	p := &pow10[k-pow10Min]
	h1, l1 := bits.Mul64(m, p[0])
	h0, p0 := bits.Mul64(m, p[1])
	p1, c := bits.Add64(l1, h0, 0)
	p2 := h1 + c
	t := uint(-(e2 + pow10Exp2(k)) - 64)
	x := p2<<(64-t) | p1>>t
	rem := p1 & (1<<t - 1)
	var up bool
	if x >= 1e18 {
		// One digit too many: drop it, rounding on it and the bits below.
		r := x % 10
		x /= 10
		e10++
		up = r > 5 || r == 5 && (rem != 0 || p0 != 0 || x&1 == 1)
	} else {
		half := uint64(1) << (t - 1)
		up = rem > half || rem == half && (p0 != 0 || x&1 == 1)
	}
	if up {
		x++
		if x == 1e18 {
			x = 1e17
			e10++
		}
	}

	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	var digits [18]byte
	for i := 16; i >= 0; i -= 2 {
		q := x / 100
		r := x - q*100
		digits[i], digits[i+1] = smalls[2*r], smalls[2*r+1]
		x = q
	}
	dst = append(dst, digits[0], '.')
	dst = append(dst, digits[1:]...)
	sign := byte('+')
	if e10 < 0 {
		sign, e10 = '-', -e10
	}
	// |e10| ≤ 38 inside the table.
	return append(dst, 'e', sign, smalls[2*e10], smalls[2*e10+1])
}

// AppendFixed2 appends v formatted as strconv.AppendFloat(dst, v, 'f', 2, 64)
// does (and fmt's %.2f).
func AppendFixed2(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7FF
	m := b & (1<<52 - 1)
	e2 := -1074
	if exp != 0 {
		m |= 1 << 52
		e2 = exp - 1075
	}
	// v·100 = m·25·2^(e2+2), with m·25 < 2^58; round it to an integer n,
	// half to even.
	m *= 25
	var n uint64
	switch sh := -(e2 + 2); {
	case exp == 0x7FF || sh < -5:
		return strconv.AppendFloat(dst, v, 'f', 2, 64)
	case sh <= 0:
		n = m << uint(-sh)
	case sh < 64:
		n = m >> uint(sh)
		rem, half := m&(1<<uint(sh)-1), uint64(1)<<uint(sh-1)
		if rem > half || rem == half && n&1 == 1 {
			n++
		}
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, n/100, 10)
	r := n % 100
	return append(dst, '.', smalls[2*r], smalls[2*r+1])
}

// ParseFloat returns what strconv.ParseFloat(string(s), 64) returns.
func ParseFloat[T string | []byte](s T) (float64, error) {
	if f, ok := parseCanonical(s); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(s), 64)
}

// parseCanonical parses [-]d.ddddddddddddddddde±dd, the token AppendE17
// writes for every value inside the table; ok is false for any other
// token and whenever the result is not certain.
func parseCanonical[T string | []byte](s T) (f float64, ok bool) {
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		s = s[1:]
	}
	if len(s) != 23 || s[1] != '.' || s[19] != 'e' || (s[20] != '+' && s[20] != '-') {
		return 0, false
	}
	w := uint64(s[0] - '0')
	if w > 9 {
		return 0, false
	}
	for i := 2; i < 19; i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		w = w*10 + uint64(d)
	}
	e1, e0 := s[21]-'0', s[22]-'0'
	if e1 > 9 || e0 > 9 {
		return 0, false
	}
	q := int(e1)*10 + int(e0)
	if s[20] == '-' {
		q = -q
	}
	return eiselLemire(w, q-17, neg)
}

// eiselLemire returns w·10^q correctly rounded, or ok false when the
// 128-bit product cannot settle the rounding or the result leaves the
// normal range (Lemire, "Number Parsing at a Gigabyte per Second", 2021;
// the steps follow strconv's eiselLemire64).
func eiselLemire(w uint64, q int, neg bool) (f float64, ok bool) {
	if w == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if q < pow10Min || q > pow10Max {
		return 0, false
	}
	p := &pow10[q-pow10Min]
	clz := bits.LeadingZeros64(w)
	w <<= uint(clz)
	retExp2 := uint64(pow10Exp2(q)+127+64+1023) - uint64(clz)

	xHi, xLo := bits.Mul64(w, p[0])
	// The low table word matters only when the high product's low bits are
	// all ones; widen then, and give up if it is still ambiguous.
	if xHi&0x1FF == 0x1FF && xLo+w < w {
		yHi, yLo := bits.Mul64(w, p[1])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+w < w {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	// Keep 54 bits, then round to 53, refusing an exact halfway case the
	// truncated table cannot tell from one just above it.
	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	fb := retExp2<<52 | mant&(1<<52-1)
	if neg {
		fb |= 1 << 63
	}
	return math.Float64frombits(fb), true
}

// smalls is the two-digit decimal table: smalls[2n], smalls[2n+1] spell
// n for n in [0, 100).
const smalls = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"
