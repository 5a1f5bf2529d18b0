// Package wire holds the request-body primitives the router
// (internal/route) and the backends (internal/serve) share, so both
// daemons read a body the same way and agree on what it says:
//
//   - ReadBody reads a body once into one buffer, sized from
//     Content-Length (at most 1 MiB before the bytes arrive) and
//     bounded at MaxBodyBytes; buffers up to 1 MiB come from
//     size-classed pools, and Body.Release hands them back once
//     nothing reads the body any more;
//   - Skip, Object, Array, Number, String and Null scan JSON text
//     with encoding/json's grammar (including its nesting limit)
//     without decoding it, so a caller can find one member of a large
//     body, or hand-decode the parts it cares about, in a single pass;
//     String also unquotes, by encoding/json's rules;
//   - Extent steps over a value by its structure alone (quotes,
//     escapes and brackets, with the same nesting limit), for a caller
//     that leaves validation to whoever decodes the body, as the
//     router does; on every value Skip accepts it ends where Skip does;
//   - ParseNumber validates a number as Number does and converts it in
//     the same pass, bit for bit as strconv.ParseFloat would;
//   - Key matches an object member's key against a field name by
//     encoding/json's rule, so a scan picks the member encoding/json
//     would have decoded;
//   - DeadlineHeader and Deadline name and parse the propagated
//     request budget, so both daemons honour it alike.
//
// Offsets are byte indexes into the scanned text. A value's start is
// its first byte (never whitespace); its end is one past its last byte.
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: text nesting containers
// deeper than this is a syntax error there, so it is one here too.
const maxDepth = 10000

var errEOF = errors.New("unexpected end of JSON input")

func syntaxError(data []byte, i int, context string) error {
	if i >= len(data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q %s at offset %d", data[i], context, i)
}

func depthError(i int) error {
	return fmt.Errorf("exceeded max depth at offset %d", i)
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// Space returns the index of the first byte at or after i that is not
// JSON whitespace, or len(data).
func Space(data []byte, i int) int {
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	return i
}

// Key reports whether an unquoted member key selects the field name:
// bytes.EqualFold, exactly as encoding/json matches keys to fields.
func Key(key []byte, name string) bool {
	return bytes.EqualFold(key, []byte(name))
}

// Null validates the literal null at data[i:] and returns its end.
func Null(data []byte, i int) (int, error) {
	return literal(data, i, "null")
}

func literal(data []byte, i int, lit string) (int, error) {
	for k := 0; k < len(lit); k++ {
		if i+k >= len(data) || data[i+k] != lit[k] {
			return i + k, syntaxError(data, i+k, "in literal "+lit)
		}
	}
	return i + len(lit), nil
}

// str validates the string at data[i] (its opening quote) and
// returns its end.
func str(data []byte, i int) (int, error) {
	for i++; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			return i + 1, nil
		case c == '\\':
			i++
			if i >= len(data) {
				return i, errEOF
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for range 4 {
					i++
					if i >= len(data) {
						return i, errEOF
					}
					if !isHex(data[i]) {
						return i, syntaxError(data, i, "in \\u hexadecimal character escape")
					}
				}
			default:
				return i, syntaxError(data, i, "in string escape code")
			}
		case c < 0x20:
			return i, syntaxError(data, i, "in string literal")
		}
	}
	return i, errEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func digits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

// Number validates the number at data[i:] against the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its end.
// What follows the number is the caller's to check. A caller that
// wants the value calls ParseNumber instead, which checks the same
// grammar; strconv.ParseFloat on its own would also take NaN, Inf, hex
// floats, underscores and a leading +.
func Number(data []byte, i int) (int, error) {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i >= len(data):
		return i, errEOF
	case data[i] == '0':
		i++
	case isDigit(data[i]):
		i = digits(data, i+1)
	default:
		return i, syntaxError(data, i, "looking for beginning of value")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || !isDigit(data[i]) {
			return i, syntaxError(data, i, "after decimal point in numeric literal")
		}
		i = digits(data, i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			return i, syntaxError(data, i, "in exponent of numeric literal")
		}
		i = digits(data, i)
	}
	return i, nil
}

// memberValue validates the `"key" :` prefix of an object member at
// data[i] and returns the key's end and the member value's start.
func memberValue(data []byte, i int) (keyEnd, value int, err error) {
	if i >= len(data) || data[i] != '"' {
		return i, i, syntaxError(data, i, "looking for beginning of object key string")
	}
	keyEnd, err = str(data, i)
	if err != nil {
		return keyEnd, keyEnd, err
	}
	i = Space(data, keyEnd)
	if i >= len(data) || data[i] != ':' {
		return keyEnd, i, syntaxError(data, i, "after object key")
	}
	i = Space(data, i+1)
	if i >= len(data) {
		return keyEnd, i, errEOF
	}
	return keyEnd, i, nil
}

// Skip validates the value at data[i] and returns its end. depth is
// the number of containers around the value, so a top-level value has
// depth 0.
func Skip(data []byte, i, depth int) (int, error) {
	var stack [64]byte
	open := stack[:0] // the open containers' opening bytes, '{' or '['
	var err error
	for {
		if i >= len(data) {
			return i, errEOF
		}
		switch c := data[i]; c {
		case '{', '[':
			if depth+len(open)+1 > maxDepth {
				return i, depthError(i)
			}
			j := Space(data, i+1)
			if j < len(data) && data[j] == c+2 { // '}' and ']' follow their openers by 2
				i = j + 1
				break
			}
			open = append(open, c)
			if c == '{' {
				_, j, err = memberValue(data, j)
			} else if j >= len(data) {
				err = errEOF
			}
			if err != nil {
				return j, err
			}
			i = j
			continue
		case '"':
			i, err = str(data, i)
		case 't':
			i, err = literal(data, i, "true")
		case 'f':
			i, err = literal(data, i, "false")
		case 'n':
			i, err = literal(data, i, "null")
		default:
			i, err = Number(data, i)
		}
		if err != nil {
			return i, err
		}
		// A value ended at i: close finished containers, then step to
		// the next element or member value.
		for {
			if len(open) == 0 {
				return i, nil
			}
			i = Space(data, i)
			if i >= len(data) {
				return i, errEOF
			}
			top := open[len(open)-1]
			if data[i] == top+2 {
				open = open[:len(open)-1]
				i++
				continue
			}
			if data[i] != ',' {
				return i, syntaxError(data, i, "after container element")
			}
			i = Space(data, i+1)
			if top == '{' {
				if _, i, err = memberValue(data, i); err != nil {
					return i, err
				}
			} else if i >= len(data) {
				return i, errEOF
			}
			break
		}
	}
}

// Object walks the object at data[i] (its opening brace) and returns
// its end. For each member, in order, it calls member with the
// unquoted key, the offset of the key's opening quote and the offset
// of the value; member must consume the value and return its end. The
// object is inside depth containers, so its member values are inside
// depth+1.
func Object(data []byte, i, depth int, member func(key []byte, k, v int) (int, error)) (int, error) {
	if depth+1 > maxDepth {
		return i, depthError(i)
	}
	i = Space(data, i+1)
	if i < len(data) && data[i] == '}' {
		return i + 1, nil
	}
	for {
		k := i
		keyEnd, v, err := memberValue(data, i)
		if err != nil {
			return v, err
		}
		key := unquote(data[k:keyEnd])
		if i, err = member(key, k, v); err != nil {
			return i, err
		}
		i = Space(data, i)
		switch {
		case i >= len(data):
			return i, errEOF
		case data[i] == '}':
			return i + 1, nil
		case data[i] != ',':
			return i, syntaxError(data, i, "after object key:value pair")
		}
		i = Space(data, i+1)
	}
}

// Array walks the array at data[i] (its opening bracket) and returns
// its end, calling elem with each element's offset; elem must consume
// the element and return its end. The array is inside depth
// containers.
func Array(data []byte, i, depth int, elem func(e int) (int, error)) (int, error) {
	if depth+1 > maxDepth {
		return i, depthError(i)
	}
	i = Space(data, i+1)
	if i < len(data) && data[i] == ']' {
		return i + 1, nil
	}
	for {
		if i >= len(data) {
			return i, errEOF
		}
		var err error
		if i, err = elem(i); err != nil {
			return i, err
		}
		i = Space(data, i)
		switch {
		case i >= len(data):
			return i, errEOF
		case data[i] == ']':
			return i + 1, nil
		case data[i] != ',':
			return i, syntaxError(data, i, "after array element")
		}
		i = Space(data, i+1)
	}
}

// String validates the string at data[i] (its opening quote) and
// returns its contents as encoding/json decodes them, and its end.
func String(data []byte, i int) (string, int, error) {
	end, err := str(data, i)
	if err != nil {
		return "", end, err
	}
	return string(unquote(data[i:end])), end, nil
}

// unquote returns a validated string's contents as encoding/json
// decodes them: escapes resolved, a \u surrogate pair joined, and a
// lone surrogate or invalid UTF-8 byte replaced by U+FFFD. A string
// with neither escapes nor invalid UTF-8 (every real key) is its own
// bytes.
func unquote(s []byte) []byte {
	s = s[1 : len(s)-1]
	r := 0
	for r < len(s) {
		c := s[r]
		if c == '\\' {
			break
		}
		if c < utf8.RuneSelf {
			r++
			continue
		}
		rr, size := utf8.DecodeRune(s[r:])
		if rr == utf8.RuneError && size == 1 {
			break
		}
		r += size
	}
	if r == len(s) {
		return s
	}
	b := make([]byte, 0, len(s)+utf8.UTFMax)
	b = append(b, s[:r]...)
	for r < len(s) {
		c := s[r]
		switch {
		case c == '\\':
			r++
			switch c = s[r]; c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			case 'u':
				rr := hex4(s[r+1:])
				r += 5
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			}
			b = append(b, c) // '"', '\\', '/' and the letters above
			r++
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// hex4 decodes the four hex digits a validated \u escape carries.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
