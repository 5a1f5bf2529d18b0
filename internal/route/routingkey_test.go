package route

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"repro/internal/contract"
	"repro/internal/serve"
	"repro/internal/wire"
)

// specKey is the engine-cache key a backend derives from a raw spec.
func specKey(raw []byte) (string, bool) {
	if len(raw) == 0 {
		return "", false
	}
	spec, err := contract.ParseSpec(raw)
	if err != nil {
		return "", false
	}
	key, err := contract.HashSpec(spec)
	return key, err == nil
}

// backendKeys lists the engine-cache keys the backend would bill body
// against, by decoding it as /v1/bill does (contract) and as
// /v1/bill/batch does (contract, else contracts[0]) with json.Decoder —
// which serve's one-pass decoder matches, see FuzzDecodeRequest. A
// decode that fails or carries no parseable spec contributes nothing.
func backendKeys(body []byte) []string {
	var keys []string
	var bill serve.BillRequest
	if json.NewDecoder(bytes.NewReader(body)).Decode(&bill) == nil {
		if key, ok := specKey(bill.Contract); ok {
			keys = append(keys, key)
		}
	}
	var batch serve.BatchRequest
	if json.NewDecoder(bytes.NewReader(body)).Decode(&batch) == nil {
		raw := []byte(batch.Contract)
		if len(raw) == 0 && len(batch.Contracts) > 0 {
			raw = batch.Contracts[0]
		}
		if key, ok := specKey(raw); ok {
			keys = append(keys, key)
		}
	}
	return keys
}

func rawSpec(t testing.TB, name string) string {
	t.Helper()
	raw, err := contract.EncodeSpec(&contract.Spec{
		Name:    name,
		Tariffs: []contract.TariffSpec{{Type: "fixed", Rate: 0.085}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestRoutingKeyFollowsBackend pins the router's key to the spec the
// backend bills, member for member.
func TestRoutingKeyFollowsBackend(t *testing.T) {
	a, b := rawSpec(t, "site-a"), rawSpec(t, "site-b")
	load := `"load":{"profile":"quickstart-month"}`
	cases := []struct {
		name, body string
		want       string // the spec whose key routes the body; "" for none
	}{
		{"contract", `{"contract":` + a + `,` + load + `}`, a},
		{"trailing bytes", `{"contract":` + a + `,` + load + `} trailing`, a},
		{"trailing object", `{"contract":` + a + `}{"contract":` + b + `}`, a},
		{"folded key", `{"Contract":` + a + `,` + load + `}`, a},
		{"escaped key", `{"contr\u0061ct":` + a + `}`, a},
		{"duplicate contract", `{"contract":` + a + `,"contract":` + b + `}`, b},
		{"contract after contracts", `{"contracts":[` + b + `],"contract":` + a + `}`, a},
		{"contracts[0]", `{"contracts":[` + a + `,` + b + `],` + load + `}`, a},
		{"folded contracts", `{"CONTRACTſ":[` + a + `]}`, a},
		{"duplicate contracts", `{"contracts":[` + a + `,` + b + `],"contracts":[` + b + `]}`, b},
		{"contracts emptied", `{"contracts":[` + a + `],"contracts":[]}`, ""},
		{"contracts nulled", `{"contracts":[` + a + `],"contracts":null}`, ""},
		{"whitespace", " \n{ \"contract\" :\t" + a + " } ", a},
		{"no contract", `{` + load + `}`, ""},
		{"truncated", `{"contract":` + a + `,"load":{`, ""},
		{"not an object", `[` + a + `]`, ""},
		{"bad spec", `{"contract":{"tariffs":"x"}}`, ""},
		{"empty", ``, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := routingKey([]byte(tc.body))
			var want string
			if tc.want != "" {
				var wantOK bool
				if want, wantOK = specKey([]byte(tc.want)); !wantOK {
					t.Fatal("test spec does not parse")
				}
			}
			if got != want || ok != (want != "") {
				t.Fatalf("routingKey = %q, %v; want %q", got, ok, want)
			}
			for _, key := range backendKeys([]byte(tc.body)) {
				if key != want {
					t.Fatalf("backend bills key %q, table says %q", key, want)
				}
			}
		})
	}
}

// FuzzRoutingKey: for every body a backend decodes and bills against a
// parseable spec, routingKey returns that spec's engine-cache key, so
// the request lands on the backend whose cache owns it. The seed corpus
// in testdata/fuzz covers folded and escaped keys, duplicates, the
// contracts[0] fallback, trailing bytes and truncation.
func FuzzRoutingKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := routingKey(body)
		for _, want := range backendKeys(body) {
			if !ok || got != want {
				t.Fatalf("routingKey = %q, %v; backend bills key %q\nbody: %q", got, ok, want, body)
			}
		}
	})
}

// batchBody is a /v1/bill/batch body of n inline loads of m
// full-precision samples (the batch-inline workload's shape), with the
// contract member first or last.
func batchBody(t testing.TB, n, m int, contractFirst bool) []byte {
	rng := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	member := `"contract":` + rawSpec(t, "inline")
	b.WriteString("{")
	if contractFirst {
		b.WriteString(member + ",")
	}
	b.WriteString(`"loads":[`)
	for i := range n {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"series":{"start":"2016-03-01T00:00:00Z","interval_seconds":900,"kw":[`)
		for j := range m {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprint(&b, 9000+6000*rng.Float64())
		}
		b.WriteString(`]}}`)
	}
	b.WriteString("]")
	if !contractFirst {
		b.WriteString("," + member)
	}
	b.WriteString("}")
	return b.Bytes()
}

var routedKey string

// BenchmarkRoutingKey keys a 16 x 2880-sample inline batch (about
// 860 KB) with its contract first and last.
func BenchmarkRoutingKey(b *testing.B) {
	for _, first := range []bool{true, false} {
		name := "contract-last"
		if first {
			name = "contract-first"
		}
		b.Run(name, func(b *testing.B) {
			body := batchBody(b, 16, 2880, first)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				key, ok := routingKey(body)
				if !ok {
					b.Fatal("no routing key")
				}
				routedKey = key
			}
		})
	}
}

// TestRouterBodyBound pins the router's 16 MiB body bound: a body of
// exactly wire.MaxBodyBytes is forwarded whole, one byte more is a 400
// that never reaches a backend, with a Content-Length and chunked alike.
func TestRouterBodyBound(t *testing.T) {
	sb := newStubBackend(t)
	var forwarded atomic.Int64
	sb.setHandler(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		forwarded.Store(n)
		w.WriteHeader(http.StatusOK)
	})
	_, front := newTestRouter(t, Config{}, sb)
	for _, size := range []int{wire.MaxBodyBytes, wire.MaxBodyBytes + 1} {
		body := bytes.Repeat([]byte(" "), size)
		for _, withLength := range []bool{true, false} {
			forwarded.Store(-1)
			hits := sb.hits.Load()
			var r io.Reader = bytes.NewReader(body)
			if !withLength {
				r = io.MultiReader(r) // hides the length: no Content-Length
			}
			req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/bill", r)
			if err != nil {
				t.Fatal(err)
			}
			if withLength != (req.ContentLength == int64(size)) {
				t.Fatalf("Content-Length %d, want it set: %v", req.ContentLength, withLength)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if size <= wire.MaxBodyBytes {
				if resp.StatusCode != http.StatusOK || forwarded.Load() != int64(size) {
					t.Fatalf("%d-byte body (Content-Length set: %v): status %d, backend got %d bytes: %s",
						size, withLength, resp.StatusCode, forwarded.Load(), out)
				}
				continue
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "request body too large") {
				t.Fatalf("%d-byte body (Content-Length set: %v): status %d: %s", size, withLength, resp.StatusCode, out)
			}
			if sb.hits.Load() != hits {
				t.Fatal("oversized body reached a backend")
			}
		}
	}
}

// TestRouterOversizedContentLengthRefusedUpFront checks that a declared
// length over the bound is refused before any of the body is read or a
// buffer for it allocated.
func TestRouterOversizedContentLengthRefusedUpFront(t *testing.T) {
	sb := newStubBackend(t)
	rt, _ := newTestRouter(t, Config{}, sb)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req := httptest.NewRequest(http.MethodPost, "/v1/bill", iotest.ErrReader(errors.New("oversized body was read")))
	req.ContentLength = 1 << 30
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Fatalf("status %d, want 400 without reading the body: %s", rec.Code, rec.Body)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("refusing a 1 GiB Content-Length allocated %d bytes", n)
	}
	if sb.hits.Load() != 0 {
		t.Fatal("oversized body reached a backend")
	}
}
