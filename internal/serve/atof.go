// The float scanner: a JSON number is scanned once and converted as it is
// scanned, the way Lemire's fast_float does it ("Number Parsing at a
// Gigabyte per Second", arXiv 2101.11408). The scan keeps up to 19
// significant digits, eight at a time where eight digit bytes follow (one
// 64-bit load, a digit check and three multiplies). The conversion tries
// strconv's exact cases first, then the Eisel–Lemire algorithm over
// pow10Tab; the inputs neither can decide (a halfway ambiguity, an
// exponent outside the table, overflow) go to strconv.ParseFloat on the
// same bytes. The result is the correctly rounded float64, so it is
// Float64bits-identical to strconv.ParseFloat; FuzzParseFloat and
// TestParseFloatMatchesStrconv hold it to that.

package serve

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// maxMantDigits is how many significant decimal digits fit a uint64
// mantissa whatever they are (10^19 < 2^64 < 10^20).
const maxMantDigits = 19

// The decimal exponents pow10Tab covers; both bounds are inclusive. The
// range is sized to culpeod's traffic, whose numbers were measured at
// decimal exponents in [−20, 0]; the rest convert through
// strconv.ParseFloat on the same bytes (DESIGN.md §11).
const (
	pow10Min = -64
	pow10Max = 63
)

// atof scans the number in the strict JSON grammar at the start of b and
// returns its nearest float64 and its length. ok is false when b does not
// start with such a number or the number overflows float64; the decoder
// then takes its strconv path, which reports the error.
func atof(b []byte) (f float64, n int, ok bool) {
	i, neg := 0, false
	if len(b) > 0 && b[0] == '-' {
		i, neg = 1, true
	}
	if i >= len(b) || !isDigit(b[i]) {
		return 0, 0, false
	}
	var (
		man   uint64 // the first nd significant digits
		nd    int
		exp10 int  // man × 10^exp10 is the number, up to trunc
		trunc bool // a non-zero digit did not fit in man
	)
	// Integer part: a lone 0, or digits from 1-9 on.
	if b[i] == '0' {
		i++
	} else {
		i, man, nd = mantDigits(b, i, man, nd)
		for ; i < len(b) && isDigit(b[i]); i++ {
			exp10++
			trunc = trunc || b[i] != '0'
		}
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			return 0, 0, false
		}
		if nd == 0 {
			// Leading fraction zeros only move the decimal point.
			for ; i < len(b) && b[i] == '0'; i++ {
				exp10--
			}
		}
		kept := nd
		i, man, nd = mantDigits(b, i, man, nd)
		exp10 -= nd - kept
		for ; i < len(b) && isDigit(b[i]); i++ {
			trunc = trunc || b[i] != '0'
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		esign := 1
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return 0, 0, false
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 { // far past the table: strconv decides
				e = e*10 + int(b[i]-'0')
			}
		}
		exp10 += esign * e
	}

	if man == 0 {
		if neg {
			return math.Copysign(0, -1), i, true
		}
		return 0, i, true
	}
	if !trunc {
		if f, ok := atofExact(man, exp10, neg); ok {
			return f, i, true
		}
	}
	if f, ok := eiselLemire(man, exp10, neg); ok {
		// A truncated mantissa is a lower bound: the value is decided only
		// when the next mantissa up rounds to the same float64.
		if !trunc {
			return f, i, true
		}
		if up, ok := eiselLemire(man+1, exp10, neg); ok && up == f {
			return f, i, true
		}
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	return f, i, err == nil
}

// mantDigits appends the digits at b[i:] to man until a non-digit or until
// man holds maxMantDigits digits, and returns where it stopped.
func mantDigits(b []byte, i int, man uint64, nd int) (int, uint64, int) {
	for nd <= maxMantDigits-8 && i+8 <= len(b) {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		man = man*1e8 + eightDigitsValue(v)
		i, nd = i+8, nd+8
	}
	for ; nd < maxMantDigits && i < len(b) && isDigit(b[i]); i++ {
		man = man*10 + uint64(b[i]-'0')
		nd++
	}
	return i, man, nd
}

// eightDigits reports whether all eight bytes of v are ASCII digits: each
// byte's high nibble must be 3, and adding 6 must not carry it to 4.
func eightDigits(v uint64) bool {
	return v&0xf0f0f0f0f0f0f0f0|(v+0x0606060606060606)&0xf0f0f0f0f0f0f0f0>>4 == 0x3333333333333333
}

// eightDigitsValue is the value of the eight ASCII digits in v, the first
// in its low byte: digit pairs, then pairs of pairs, then the whole.
func eightDigitsValue(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8 // byte 2k: the two-digit value of digits 2k, 2k+1
	const mask = 0x000000ff000000ff
	return ((v&mask)*(100+1000000<<32) + (v>>16&mask)*(1+10000<<32)) >> 32
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// atofExact converts man × 10^exp10 with one correctly rounded float64
// operation when man and the power of ten are both exact float64s.
func atofExact(man uint64, exp10 int, neg bool) (float64, bool) {
	if man>>53 != 0 {
		return 0, false
	}
	f := float64(man)
	switch {
	case exp10 == 0:
	case 0 < exp10 && exp10 <= 15+22:
		// Move surplus powers into the mantissa while it stays exact.
		if exp10 > 22 {
			f *= float64pow10[exp10-22]
			exp10 = 22
		}
		if f > 1e15 {
			return 0, false
		}
		f *= float64pow10[exp10]
	case -22 <= exp10 && exp10 < 0:
		f /= float64pow10[-exp10]
	default:
		return 0, false
	}
	if neg {
		f = -f
	}
	return f, true
}

// eiselLemire converts man × 10^exp10 (man ≠ 0) by multiplying man by the
// 128-bit mantissa of 10^exp10. ok is false when the product's truncated
// bits leave the rounding undecided, or the result is subnormal, zero or
// infinite.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10Tab[exp10-pow10Min]
	lz := bits.LeadingZeros64(man)
	man <<= uint(lz)
	// The biased binary exponent: 217706/2^16 is log2(10) to the precision
	// the table's range needs.
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz)

	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1ff == 0x1ff && lo+man < man {
		// The low 9 bits are all ones and the product's low word may carry
		// into them: widen the multiply with the table's low word.
		yhi, ylo := bits.Mul64(man, pow[1])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1ff == 0x1ff && mlo+1 == 0 && ylo+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}

	// Keep 54 bits, then round to 53, ties to even.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false // may be exactly halfway between two float64s
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7ff-1 {
		return 0, false // subnormal, zero or infinite
	}
	fb := exp2<<52 | m&(1<<52-1)
	if neg {
		fb |= 1 << 63
	}
	return math.Float64frombits(fb), true
}
