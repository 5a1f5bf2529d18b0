package wire

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// maxMantDigits is how many significant decimal digits fit a uint64
// mantissa without overflow.
const maxMantDigits = 19

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// ParseNumber validates the number at data[i:] as Number does, with
// the same end offsets and errors, and returns its float64 value in
// the same pass: correctly rounded, bit for bit what
// strconv.ParseFloat(string(data[i:end]), 64) returns.
//
// While it checks the grammar it keeps up to 19 significant digits
// and the decimal exponent. A mantissa below 2^53 times a power of ten
// a float64 holds exactly is one correctly rounded multiply or divide
// (Clinger's fast path); anything else goes to Eisel–Lemire. The rare
// numbers neither settles (more than 19 significant digits, a product
// too close to a halfway point, an exponent outside the power table,
// a result that overflows or is subnormal) go to strconv.ParseFloat on
// the already checked bytes, so a number out of float64's range gets
// ParseFloat's ±Inf and its *strconv.NumError wrapping
// strconv.ErrRange, and an underflow its signed zero.
func ParseNumber(data []byte, i int) (float64, int, error) {
	start := i
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	var (
		man   uint64 // the first significant digits, at most maxMantDigits
		nd    int    // digits in man
		exp10 int    // the value is man × 10^exp10, less any dropped digits
		trunc bool   // a nonzero digit was dropped
	)
	switch {
	case i >= len(data):
		return 0, i, errEOF
	case data[i] == '0':
		i++
	case isDigit(data[i]):
		for ; i < len(data) && isDigit(data[i]); i++ {
			if nd < maxMantDigits {
				man = man*10 + uint64(data[i]-'0')
				nd++
			} else {
				exp10++
				trunc = trunc || data[i] != '0'
			}
		}
	default:
		return 0, i, syntaxError(data, i, "looking for beginning of value")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || !isDigit(data[i]) {
			return 0, i, syntaxError(data, i, "after decimal point in numeric literal")
		}
		for ; i < len(data) && isDigit(data[i]); i++ {
			switch {
			case nd == 0 && data[i] == '0':
				exp10-- // a leading zero
			case nd < maxMantDigits:
				man = man*10 + uint64(data[i]-'0')
				nd++
				exp10--
			default:
				trunc = trunc || data[i] != '0'
			}
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		eneg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			eneg = data[i] == '-'
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			return 0, i, syntaxError(data, i, "in exponent of numeric literal")
		}
		e := 0
		for ; i < len(data) && isDigit(data[i]); i++ {
			if e < 10000 { // far past any float64; stop before int overflow
				e = e*10 + int(data[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), i, nil
		}
		return 0, i, nil
	}
	if !trunc {
		if man < 1<<53 && -len(exactPow10) < exp10 && exp10 < len(exactPow10) {
			f := float64(man)
			if exp10 < 0 {
				f /= exactPow10[-exp10]
			} else {
				f *= exactPow10[exp10]
			}
			if neg {
				f = -f
			}
			return f, i, nil
		}
		if f, ok := eiselLemire(man, exp10, neg); ok {
			return f, i, nil
		}
	}
	f, err := strconv.ParseFloat(string(data[start:i]), 64)
	return f, i, err
}

// pow10Min and pow10Max bound the exponents of the power table.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10Table holds 10^q for q in [pow10Min, pow10Max] as 128-bit
// mantissas, {low, high} words, rounded down and normalised so the top
// bit is set: 10^q ≈ m × 2^(⌊q·log2 10⌋ − 127). buildPow10 fills it on
// first use, under pow10Once, so a process that never parses a hard
// number never pays for it.
var (
	pow10Table [pow10Max - pow10Min + 1][2]uint64
	pow10Once  sync.Once
)

func buildPow10() {
	p := big.NewInt(1) // 10^k
	ten := big.NewInt(10)
	m := new(big.Int)
	for k := 0; k <= -pow10Min; k++ {
		if k <= pow10Max {
			if n := p.BitLen(); n > 128 {
				m.Rsh(p, uint(n-128))
			} else {
				m.Lsh(p, uint(128-n))
			}
			pow10Table[k-pow10Min] = words(m)
		}
		if k > 0 {
			// 10^-k = 2^(127+n) / 10^k × 2^-(127+n), and for a p that is
			// not a power of two that quotient has exactly 128 bits.
			m.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			m.Quo(m, p)
			pow10Table[-k-pow10Min] = words(m)
		}
		p.Mul(p, ten)
	}
}

// words splits a 128-bit integer into its {low, high} 64-bit words.
func words(m *big.Int) [2]uint64 {
	var b [16]byte
	m.FillBytes(b[:])
	return [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
}

// eiselLemire returns man × 10^exp10 correctly rounded, for a nonzero
// man, or ok false when it cannot decide the rounding or the result
// is not a normal float64 (Lemire, "Number Parsing at a Gigabyte per
// Second", 2021; strconv runs the same algorithm).
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow10Once.Do(buildPow10)
	pow := &pow10Table[exp10-pow10Min]

	// Normalise man so its top bit is set; 217706/2^16 ≈ log2 10 gives
	// the power's binary exponent.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// The product's high 64 bits, from the power's high word. The power
	// is rounded down, so the true product lies in [x, x + man); when
	// that interval could carry into the bits that decide rounding, the
	// low word narrows it.
	xHi, xLo := bits.Mul64(man, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mHi, mLo := xHi, xLo+yHi
		if mLo < xLo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mHi, mLo
	}

	// Keep 54 bits: the 53 of the result and one to round on.
	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	exp2 -= 1 ^ msb

	// Exactly halfway between two floats: round-to-even needs all the
	// digits, which this does not have.
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 (or a wrap below it) is subnormal, 0x7FF and
	// above is infinite.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
