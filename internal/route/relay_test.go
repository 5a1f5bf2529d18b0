package route

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRelayAllocs: relaying a 2 KB response that declares its
// Content-Length, over a real client connection, allocates under 8 KB
// more than relaying a 64-byte one. The copy runs through a pooled
// buffer; handing it to http.response's ReadFrom would make
// net.TCPConn's generic ReadFrom allocate 32 KB for every response
// longer than 512 bytes.
func TestRelayAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 2048)
	var size atomic.Int64
	client := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		n := size.Load()
		return &http.Response{
			StatusCode:    http.StatusOK,
			ContentLength: n,
			Header:        http.Header{"Content-Length": {strconv.FormatInt(n, 10)}},
			// A plain reader, like a transport's body: no WriterTo.
			Body:    io.NopCloser(struct{ io.Reader }{bytes.NewReader(payload[:n])}),
			Request: req,
		}, nil
	})}
	rt, err := NewRouter(Config{Backends: []string{"http://backend.test"}, Client: client, DisableHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	get := func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/bill", "application/json", strings.NewReader(`{"contract":{"name":"relay"}}`))
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != size.Load() || resp.ContentLength != n {
			t.Fatalf("relayed %d bytes (%v), Content-Length %d, want %d", n, err, resp.ContentLength, size.Load())
		}
	}
	perRequest := func(n int64) float64 {
		size.Store(n)
		for range 20 {
			get()
		}
		const rounds = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			get()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	small := perRequest(64)
	large := perRequest(int64(len(payload)))
	if extra := large - small; extra >= 8<<10 {
		t.Fatalf("a %d-byte relay allocates %.0f B per request, %.0f B more than a 64-byte one; want under 8 KB more",
			len(payload), large, extra)
	}
}
