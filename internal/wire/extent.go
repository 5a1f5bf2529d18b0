package wire

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Extent returns the end of the value at data[i] from its structure
// alone, for a caller that only needs to step over the value and
// leaves validating it to whoever decodes it. Inside a container it
// looks at nothing but quotes, backslashes before a quote, and
// brackets: string bodies are crossed with bytes.IndexByte, and number
// runs eight bytes at a time. A number or literal outside any
// container is checked by Skip, because its end depends on the
// grammar.
//
// On any text Skip accepts, Extent returns the same end, and it
// applies the same nesting limit to the brackets it counts; on other
// text it returns some end within data, with or without an error.
// depth is the number of containers around the value, as for Skip.
func Extent(data []byte, i, depth int) (int, error) {
	if i >= len(data) {
		return i, errEOF
	}
	switch data[i] {
	case '"':
		return stringEnd(data, i)
	case '{', '[':
	default:
		return Skip(data, i, depth)
	}
	open := 0
	for {
		switch data[i] {
		case '"':
			end, err := stringEnd(data, i)
			if err != nil {
				return end, err
			}
			i = end - 1
		case '{', '[':
			if depth+open+1 > maxDepth {
				return i, depthError(i)
			}
			open++
		case '}', ']':
			open--
			if open == 0 {
				return i + 1, nil
			}
		}
		if i = nextStructural(data, i+1); i == len(data) {
			return i, errEOF
		}
	}
}

// stringEnd returns the end of the string at data[i] (its opening
// quote): one past the first quote not escaped by an odd run of
// backslashes. On a valid string that is the quote Skip stops at, since
// an escape never produces a quote or a backslash that could pair up
// differently.
func stringEnd(data []byte, i int) (int, error) {
	for j := i + 1; ; j++ {
		k := bytes.IndexByte(data[j:], '"')
		if k < 0 {
			return len(data), errEOF
		}
		j += k
		b := j
		for data[b-1] == '\\' { // stops at the opening quote at the latest
			b--
		}
		if (j-b)%2 == 0 {
			return j + 1, nil
		}
	}
}

const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
	// Masking out the bits in which '[', ']', '{' and '}' differ maps
	// all four to one byte, which only 'Y', '_', 'y' and DEL share;
	// nextStructural may stop at those, and Extent passes over them.
	bracketBits = 0x26 * ones
	brackets    = '[' &^ 0x26 * ones
	quotes      = '"' * ones
)

// zeroBytes sets the high bit of the lowest zero byte of x; bytes above
// it may be flagged as well, so only the lowest flag is exact.
func zeroBytes(x uint64) uint64 { return (x - ones) &^ x & highs }

// nextStructural returns the index of the first quote or bracket at or
// after i (or of a byte that shares a bracket's bits, see bracketBits),
// or len(data).
func nextStructural(data []byte, i int) int {
	for ; i+8 <= len(data); i += 8 {
		v := binary.LittleEndian.Uint64(data[i:])
		if m := zeroBytes(v^quotes) | zeroBytes(v&^bracketBits^brackets); m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(data); i++ {
		if c := data[i]; c == '"' || c&^0x26 == '['&^0x26 {
			return i
		}
	}
	return len(data)
}
