package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// valid reports whether Skip accepts data as one JSON text: a value
// with nothing but whitespace around it, json.Valid's question.
func valid(data []byte) bool {
	i := Space(data, 0)
	end, err := Skip(data, i, 0)
	return err == nil && Space(data, end) == len(data)
}

var validityCases = []string{
	``, ` `, `null`, ` true `, `false`, `nul`, `nullx`, `0`, `-0`, `01`, `-`, `1.`, `.5`, `1e`, `1e+`,
	`1E+2`, `-1.5e-3`, `1e400`, `+1`, `NaN`, `Infinity`, `0x1p3`, `"a"`, `"é"`, `"\u00g9"`,
	`"\q"`, "\"\x01\"", "\"\xff\"", `"`, `"\`, `{}`, `[]`, `{ }`, `[ ]`, `{"a":1}`, `{"a":1,}`, `[1,]`,
	`[,1]`, `{"a"}`, `{"a":}`, `{a:1}`, `{"a":1 "b":2}`, `[1 2]`, `{"a":[1,{"b":null}],"c":"d"}`,
	`"a\u00e9\n\t\"\\\/\b\f\r"`, `"\ud83d\ude00"`, `"\uD83D\uDE00x"`, `"\ud83d"`, `"\ud83dx"`,
	`"\ude00\ud83d"`, `"\ud83d\u0041"`, `"\ud83d\\u0041"`, `"\ud83d\ud83d\ude00"`, "\"\xed\xa0\x80\"",
	"\"ab\xffc\xc3\"", `"\'"`, `"" `, "\"a\"\n", `[[[]]]`, `[[[]]`, `{"a":{"b":{}}}}`, `[1]x`, "[1,\n2\t,\r3 ]",
	strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth),
	strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
	strings.Repeat(`{"a":`, maxDepth) + "1" + strings.Repeat("}", maxDepth),
	strings.Repeat(`{"a":`, maxDepth+1) + "1" + strings.Repeat("}", maxDepth+1),
}

// TestSkipMatchesValid holds the scanner's grammar, nesting limit
// included, to encoding/json's.
func TestSkipMatchesValid(t *testing.T) {
	for _, c := range validityCases {
		if got, want := valid([]byte(c)), json.Valid([]byte(c)); got != want {
			t.Errorf("valid(%.40q) = %v, json.Valid says %v", c, got, want)
		}
	}
}

// TestStringMatchesUnmarshal holds String's unquoting to
// encoding/json's.
func TestStringMatchesUnmarshal(t *testing.T) {
	for _, c := range validityCases {
		checkString(t, []byte(c))
	}
}

// checkString compares String with json.Unmarshal on a JSON string
// text; other texts are not its concern.
func checkString(t *testing.T, data []byte) {
	var want string
	if len(data) == 0 || data[0] != '"' || json.Unmarshal(data, &want) != nil {
		return
	}
	got, end, err := String(data, 0)
	if err != nil || Space(data, end) != len(data) || got != want {
		t.Errorf("String(%q) = %q, %d, %v; json.Unmarshal says %q", data, got, end, err, want)
	}
}

// FuzzSkip: Skip accepts exactly the texts json.Valid does, and String
// unquotes a string text exactly as json.Unmarshal does.
func FuzzSkip(f *testing.F) {
	for _, c := range validityCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := valid(data), json.Valid(data); got != want {
			t.Fatalf("valid(%q) = %v, json.Valid says %v", data, got, want)
		}
		checkString(t, data)
	})
}

// TestObjectKeys checks that Object hands each member its key as
// encoding/json unquotes it, with the key's and value's offsets.
func TestObjectKeys(t *testing.T) {
	data := []byte(" {\"a\" : 1, \"b😀\":[2], \"c\xff\":{}, \"\\u017f\":null} tail")
	var keys []string
	end, err := Object(data, 1, 0, func(key []byte, k, v int) (int, error) {
		if data[k] != '"' {
			t.Errorf("key offset %d is not a quote", k)
		}
		keys = append(keys, string(key))
		return Skip(data, v, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(data[end:]) != " tail" {
		t.Fatalf("object ended at %d, before %q", end, data[end:])
	}
	want := []string{"a", "b😀", "c�", "ſ"}
	if strings.Join(keys, "|") != strings.Join(want, "|") {
		t.Fatalf("keys %q, want %q", keys, want)
	}
	if !Key([]byte("ſ"), "S") || !Key([]byte("LOAD"), "load") || Key([]byte("loads"), "load") {
		t.Fatal("Key does not fold like encoding/json")
	}
}

// TestReadBodySizing checks that a declared length is read into one
// buffer: within maxPresize, the smallest pooled class that holds the
// body and the byte that sees EOF, and past it, exactly that size after
// doubling from maxPresize. A chunked body of any size arrives whole.
func TestReadBodySizing(t *testing.T) {
	for _, size := range []int{100_000, maxPresize - 1, maxPresize, 3 << 20} {
		body := bytes.Repeat([]byte("x"), size)
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		got, err := ReadBody(httptest.NewRecorder(), req)
		if err != nil || !bytes.Equal(got.Bytes, body) {
			t.Fatalf("read %d bytes, %v", len(got.Bytes), err)
		}
		want := size + 1
		if want <= maxPresize {
			want = minClass
			for want < size+1 {
				want *= 2
			}
		}
		if cap(got.Bytes) != want {
			t.Fatalf("buffer capacity %d for a %d-byte Content-Length, want %d", cap(got.Bytes), size, want)
		}
		got.Release()
		req = httptest.NewRequest(http.MethodPost, "/", io.MultiReader(bytes.NewReader(body)))
		req.ContentLength = -1
		if got, err = ReadBody(httptest.NewRecorder(), req); err != nil || !bytes.Equal(got.Bytes, body) {
			t.Fatalf("chunked: read %d bytes, %v", len(got.Bytes), err)
		}
		got.Release()
	}
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(strings.Repeat(" ", MaxBodyBytes+1)))
	req.ContentLength = -1
	var tooLarge *http.MaxBytesError
	if _, err := ReadBody(httptest.NewRecorder(), req); !errors.As(err, &tooLarge) {
		t.Fatalf("chunked body over the bound: %v", err)
	}
}

// TestReleasePoisons checks the test hook: a released buffer holds
// nothing but PoisonByte while poisoning is on, and is left as it is
// after.
func TestReleasePoisons(t *testing.T) {
	read := func() Body {
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"a":1}`))
		b, err := ReadBody(httptest.NewRecorder(), req)
		if err != nil || string(b.Bytes) != `{"a":1}` {
			t.Fatalf("read %q, %v", b.Bytes, err)
		}
		return b
	}
	stop := PoisonReleased()
	b := read()
	b.Release()
	if full := b.Bytes[:cap(b.Bytes)]; bytes.Count(full, []byte{PoisonByte}) != len(full) {
		t.Fatalf("released buffer not poisoned: %q", full[:16])
	}
	stop()
	b = read()
	b.Release()
	if string(b.Bytes) != `{"a":1}` {
		t.Fatalf("released buffer poisoned after stop: %q", b.Bytes)
	}
	Body{}.Release() // does nothing
}

// TestReadBodyStalledClient checks that a request declaring the full
// 16 MiB, which sends one byte and then stalls, holds no more than
// maxPresize while it waits.
func TestReadBodyStalledClient(t *testing.T) {
	stalled, release := make(chan struct{}), make(chan struct{})
	sent := false
	req := httptest.NewRequest(http.MethodPost, "/", nil)
	req.Body = io.NopCloser(readerFunc(func(p []byte) (int, error) {
		if !sent {
			sent = true
			p[0] = '{'
			return 1, nil
		}
		close(stalled)
		<-release
		return 0, io.ErrUnexpectedEOF
	}))
	req.ContentLength = MaxBodyBytes
	w := httptest.NewRecorder()
	var before, during runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan error, 1)
	go func() {
		_, err := ReadBody(w, req)
		done <- err
	}()
	<-stalled
	runtime.ReadMemStats(&during)
	close(release)
	if err := <-done; !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("stalled body: %v", err)
	}
	if n := during.TotalAlloc - before.TotalAlloc; n > maxPresize+64<<10 {
		t.Fatalf("a stalled 16 MiB declaration holds %d bytes, want at most %d", n, maxPresize)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
