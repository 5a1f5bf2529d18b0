package wire

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// hex is encoding/json's digit set for \u escapes.
const hex = "0123456789abcdef"

// htmlSafe reports the ASCII bytes encoding/json copies into a string
// verbatim by default: everything printable but the quote, the
// backslash and the HTML-sensitive <, > and &.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// AppendString appends s to dst as a JSON string, escaped exactly as
// encoding/json escapes it by default: \" and \\, short forms for \b,
// \f, \n, \r and \t, \u00XX for the other control bytes and for <, >
// and &, \ufffd for each byte that is not valid UTF-8, and \u2028 and
// \u2029 for the two line separators JavaScript will not take raw.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f to dst as a JSON number, formatted exactly as
// encoding/json formats a float64: the shortest decimal that reads
// back as f, in 'f' notation unless |f| is below 1e-6 or at least
// 1e21, with a one-digit negative exponent written e-7, not e-07, and
// the sign of -0 kept. NaN and the infinities have no JSON form; they
// fail with encoding/json's message and leave dst as it was.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
