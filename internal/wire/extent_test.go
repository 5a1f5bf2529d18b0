package wire

import (
	"strings"
	"testing"
)

// extentCases add to validityCases the texts the structural scan could
// get wrong: quotes behind runs of backslashes, brackets and the bytes
// that share their bits inside strings, and mismatched or unclosed
// containers.
var extentCases = []string{
	`["\\"]`, `["\\\\"]`, `["\"]"]`, `["\\\"]"]`, `{"a]":"}"}`, `["[{"]`, `"\\"`, `"\"`, `"a\\\"b"`,
	`["Y_y\u007f", "YYYYYYYYY"]`, "[\"Y_y\x7f\"]", `[1,2.5e-3,true,false,null,"x"]`, `[}`, `{]`,
	`[[1,2],[3,4]] tail`, `{"kw":[1234.56,2345.67,3456.78,4567.89]}`, `[`, `[[[`, `["`, `[1,2`,
	`truex`, `1.5e3.2`, `-`, strings.Repeat(`[1,`, 20) + strings.Repeat(`]`, 20),
}

// extentRef is the reference the structural scan is held to: a
// container or string ends at its closing bracket or quote found byte
// by byte, with a backslash escaping whatever follows it inside a
// string; any other value ends where Skip says.
func extentRef(data []byte, i, depth int) (int, bool) {
	if i >= len(data) {
		return i, false
	}
	switch data[i] {
	case '"', '{', '[':
	default:
		end, err := Skip(data, i, depth)
		return end, err == nil
	}
	open, inString, escaped := 0, false, false
	for ; i < len(data); i++ {
		switch c := data[i]; {
		case escaped:
			escaped = false
		case inString && c == '\\':
			escaped = true
		case inString && c == '"':
			inString = false
			if open == 0 {
				return i + 1, true
			}
		case inString:
		case c == '"':
			inString = true
		case c == '{' || c == '[':
			if open++; depth+open > maxDepth {
				return i, false
			}
		case c == '}' || c == ']':
			if open--; open == 0 {
				return i + 1, true
			}
		}
	}
	return len(data), false
}

// checkExtent holds Extent to extentRef on any text, at the top level
// and close to the nesting limit, and to Skip on the texts Skip
// accepts.
func checkExtent(t *testing.T, data []byte) {
	t.Helper()
	i := Space(data, 0)
	for _, depth := range []int{0, maxDepth - 3, maxDepth} {
		end, err := Extent(data, i, depth)
		if end < i || end > len(data) {
			t.Fatalf("Extent(%.60q, depth %d) = %d, outside [%d, %d]", data, depth, end, i, len(data))
		}
		if want, ok := extentRef(data, i, depth); end != want || (err == nil) != ok {
			t.Fatalf("Extent(%.60q, depth %d) = %d, %v; reference says %d, ok %v", data, depth, end, err, want, ok)
		}
		if want, werr := Skip(data, i, depth); werr == nil && (end != want || err != nil) {
			t.Fatalf("Extent(%.60q, depth %d) = %d, %v; Skip accepts it and ends at %d", data, depth, end, err, want)
		}
	}
}

// TestExtentMatchesSkip runs the structural scan's checks on the
// hand-picked texts.
func TestExtentMatchesSkip(t *testing.T) {
	for _, c := range append(validityCases, extentCases...) {
		checkExtent(t, []byte(c))
	}
}

// FuzzExtent: on any text Extent stays within the data and agrees with
// the byte-by-byte reference, nesting limit included, and on every
// text Skip accepts it ends where Skip does.
func FuzzExtent(f *testing.F) {
	for _, c := range append(validityCases, extentCases...) {
		f.Add([]byte(c))
	}
	f.Fuzz(checkExtent)
}
