package wire

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkNumber holds ParseNumber to Number and strconv.ParseFloat on
// the text at data[0:]: the same accept or reject, the same end and
// error text, and on acceptance ParseFloat's value bit for bit and its
// range error.
func checkNumber(t *testing.T, data []byte) {
	t.Helper()
	wantEnd, wantErr := Number(data, 0)
	f, end, err := ParseNumber(data, 0)
	if end != wantEnd {
		t.Fatalf("ParseNumber(%q) ends at %d, Number at %d", data, end, wantEnd)
	}
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("ParseNumber(%q) error %v, Number's %v", data, err, wantErr)
		}
		return
	}
	want, wantErr := strconv.ParseFloat(string(data[:end]), 64)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("ParseNumber(%q) error %v, strconv.ParseFloat's %v", data, err, wantErr)
	}
	if math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("ParseNumber(%q) = %v (%#x), strconv.ParseFloat says %v (%#x)",
			data, f, math.Float64bits(f), want, math.Float64bits(want))
	}
}

// FuzzParseNumber is the differential check on the one-pass number
// parser. The seed corpus in testdata/fuzz covers 2^53±1, 19-, 20- and
// 40-digit mantissas, exponents at ±22, ±23, ±348 and past int64,
// subnormals, the largest float64 and the first text past it, 1e400,
// 1e-400, -0, leading fraction zeros, halfway cases and truncated
// texts.
func FuzzParseNumber(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkNumber(t, data)
	})
}

// TestParseNumberMatchesStrconv formats random float64s, drawn over
// every binary exponent and over kW-like magnitudes, with 'g', 'e' and
// 'f' at shortest and at fixed precisions, and checks each text.
func TestParseNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	formats := []byte{'g', 'e', 'f'}
	var buf []byte
	for n := range 200_000 {
		var x float64
		switch n % 3 {
		case 0:
			x = math.Float64frombits(rng.Uint64())
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
		case 1:
			x = 9000 + 18000*rng.Float64()
		default:
			x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		format := formats[rng.Intn(len(formats))]
		prec := -1
		if rng.Intn(2) == 0 {
			prec = rng.Intn(25)
		}
		if format == 'f' && (math.Abs(x) > 1e30 || math.Abs(x) < 1e-30) {
			format = 'e' // keep 'f' texts short
		}
		buf = strconv.AppendFloat(buf[:0], x, format, prec, 64)
		checkNumber(t, buf)
	}
}

// samples is a batch-inline-like kw series: shortest round-trip
// texts of 15-minute facility loads between 9 and 27 MW.
func samples(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		out[i] = strconv.AppendFloat(nil, 9000+18000*rng.Float64(), 'f', -1, 64)
	}
	return out
}

var parsed float64

// BenchmarkParseNumber parses 11,520 kW sample texts (four months of
// 15-minute samples) per op, one pass against the validating scan plus
// strconv.ParseFloat it replaces, and reports ns per sample.
func BenchmarkParseNumber(b *testing.B) {
	texts := samples(11520)
	perFloat := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(texts)), "ns/float")
	}
	b.Run("one-pass", func(b *testing.B) {
		for range b.N {
			for _, s := range texts {
				f, _, err := ParseNumber(s, 0)
				if err != nil {
					b.Fatal(err)
				}
				parsed = f
			}
		}
		perFloat(b)
	})
	b.Run("number+parsefloat", func(b *testing.B) {
		for range b.N {
			for _, s := range texts {
				end, err := Number(s, 0)
				if err != nil {
					b.Fatal(err)
				}
				if parsed, err = strconv.ParseFloat(string(s[:end]), 64); err != nil {
					b.Fatal(err)
				}
			}
		}
		perFloat(b)
	})
}
