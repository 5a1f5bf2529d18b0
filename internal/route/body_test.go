package route

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/wire"
)

// roundTripFunc is an http.RoundTripper made of a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// poisoned reports whether every byte of b's buffer is wire.PoisonByte,
// which is what a release leaves behind while wire.PoisonReleased is on.
func poisoned(b []byte) bool {
	full := b[:cap(b)]
	return bytes.Count(full, []byte{wire.PoisonByte}) == len(full)
}

// readForward reads body through wire.ReadBody, as handleProxy does,
// into a pooled buffer.
func readForward(t *testing.T, body []byte) *forwardBody {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/bill", bytes.NewReader(body))
	read, err := wire.ReadBody(httptest.NewRecorder(), req)
	if err != nil {
		t.Fatal(err)
	}
	return &forwardBody{Body: read}
}

// TestForwardBodyReleasedByLastReference: the buffer goes back to the
// pool only when the handler, the first reader and a GetBody copy have
// all let go, in whatever order; a reader closes once, and reads
// nothing after.
func TestForwardBodyReleasedByLastReference(t *testing.T) {
	defer wire.PoisonReleased()()
	body := []byte(`{"contract":{"name":"refs"}}`)
	fb := readForward(t, body)
	buf := fb.Bytes
	fb.hold() // the handler's
	first, copied := fb.reader(), fb.reader()
	fb.drop()
	if got, _ := io.ReadAll(first); !bytes.Equal(got, body) {
		t.Fatalf("first reader read %q", got)
	}
	first.Close()
	first.Close()
	if n, err := first.Read(make([]byte, 8)); n != 0 || err == nil {
		t.Fatalf("read after close: %d, %v", n, err)
	}
	if got, _ := io.ReadAll(copied); !bytes.Equal(got, body) || poisoned(buf) {
		t.Fatalf("released while a GetBody copy was open: read %q", got)
	}
	copied.Close()
	if !poisoned(buf) {
		t.Fatal("buffer not released after the last reference dropped")
	}
}

// TestForwardBodyOutlivesEarlyAnswer: a draining backend answers 503
// before reading the body, and the router fails over to the next one.
// net/http may still be writing the first forward's body after that
// round trip has returned, so the buffer must stay intact after the
// handler has returned, until that transport closes the body, and be
// released then. Each forward declares its length, with a GetBody.
func TestForwardBodyOutlivesEarlyAnswer(t *testing.T) {
	defer wire.PoisonReleased()()
	body := bytes.Repeat([]byte(`{"unkeyed":[1,2,3]} `), 5000)
	const draining, spare = "http://draining.test", "http://spare.test"
	unread := make(chan io.ReadCloser, 1)
	client := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.ContentLength != int64(len(body)) || req.GetBody == nil {
			t.Errorf("forward to %s: Content-Length %d, GetBody set %v", req.URL.Host, req.ContentLength, req.GetBody != nil)
		}
		resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(`{"ok":true}`)), Request: req}
		if "http://"+req.URL.Host == draining {
			unread <- req.Body
			resp.StatusCode, resp.Body = http.StatusServiceUnavailable, http.NoBody
			return resp, nil
		}
		got, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("spare read %d bytes, %v", len(got), err)
		}
		return resp, nil
	})}
	rt, err := NewRouter(Config{Backends: []string{draining, spare}, Client: client, DisableHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bill", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("failover answered %d: %s", rec.Code, rec.Body)
	}

	late := <-unread
	buf := late.(*bodyReader).body.Bytes
	got, err := io.ReadAll(late)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("the draining backend's transport read %d bytes (%v) after the handler returned; released early: %v",
			len(got), err, poisoned(buf))
	}
	late.Close()
	if !poisoned(buf) {
		t.Fatal("buffer not released when the last transport closed its body")
	}
}

// TestCopyHeaderAllocs: with no Connection header naming a field
// outside the hop-by-hop set, copyHeader allocates only dst's value
// slices, one per end-to-end field.
func TestCopyHeaderAllocs(t *testing.T) {
	src := http.Header{
		"Content-Type":      {"application/json"},
		"X-Request-Id":      {"abc123"},
		"Connection":        {"keep-alive"},
		"Keep-Alive":        {"timeout=5"},
		"Transfer-Encoding": {"chunked"},
	}
	dst := http.Header{}
	allocs := testing.AllocsPerRun(100, func() {
		clear(dst)
		copyHeader(dst, src)
	})
	if len(dst) != 2 || allocs > 2 {
		t.Fatalf("copied %v with %.1f allocations, want the 2 end-to-end fields with 2", dst, allocs)
	}
}
