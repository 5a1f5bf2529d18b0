package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/wire"
)

// requestType is any of the four request bodies decodeRequest handles.
type requestType interface {
	BillRequest | AdviseRequest | BatchRequest | OptimizeRequest
}

// seriesOf lists every decoded inline series of a request, in field
// order, so their samples can be compared bit for bit.
func seriesOf(req any) []*SeriesSpec {
	var out []*SeriesSpec
	switch r := req.(type) {
	case *BillRequest:
		out = append(out, r.Load.Series)
	case *AdviseRequest:
		out = append(out, r.Load.Series)
	case *OptimizeRequest:
		out = append(out, r.Load.Series)
	case *BatchRequest:
		if r.Load != nil {
			out = append(out, r.Load.Series)
		}
		for _, ls := range r.Loads {
			out = append(out, ls.Series)
		}
	}
	return out
}

// sameKW reports whether two sample slices agree in nil-ness, length
// and every value's bits (reflect.DeepEqual would take -0 for 0).
func sameKW(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkDecode holds decodeRequest to json.Decoder on one body: both
// accept or both reject it, and accepted bodies decode to equal values.
func checkDecode[T requestType](t *testing.T, body []byte) {
	t.Helper()
	var got T
	matchDecoder(t, body, got, decodeRequest(body, &got))
}

// matchDecoder holds what decodeRequest made of body, got and its
// error gotErr, to what json.Decoder makes of it.
func matchDecoder[T requestType](t *testing.T, body []byte, got T, gotErr error) {
	t.Helper()
	var want T
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T: decodeRequest error %v, json.Decoder error %v\nbody: %q", got, gotErr, wantErr, body)
	}
	if gotErr != nil {
		return
	}
	gs, ws := seriesOf(&got), seriesOf(&want)
	for i := range gs {
		if (gs[i] == nil) != (ws[i] == nil) {
			t.Fatalf("%T: series %d present %v, json.Decoder %v\nbody: %q", got, i, gs[i] != nil, ws[i] != nil, body)
		}
		if gs[i] != nil && !sameKW(gs[i].KW, ws[i].KW) {
			t.Fatalf("%T: series %d kw %v, json.Decoder %v\nbody: %q", got, i, gs[i].KW, ws[i].KW, body)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: decoded %+v, json.Decoder %+v\nbody: %q", got, got, want, body)
	}
}

// FuzzDecodeRequest is the differential check on the one-pass body
// decoder: for each request type, decodeRequest and
// json.NewDecoder(bytes.NewReader(body)).Decode accept and reject the
// same bodies, and decode accepted ones to equal values, kw samples
// compared bit for bit. The seed corpus in testdata/fuzz covers folded
// keys (KW, Series, Loads, U+017F for s), duplicate members, null kw
// elements over an earlier array, number edge cases, malformed numbers
// and literals, whitespace, trailing bytes and truncation.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode[BillRequest](t, body)
		checkDecode[AdviseRequest](t, body)
		checkDecode[BatchRequest](t, body)
		checkDecode[OptimizeRequest](t, body)
	})
}

// TestDecodeRequestMatchesEncodingJSON runs the differential check on
// hand-picked bodies, so plain `go test` covers the edge cases.
func TestDecodeRequestMatchesEncodingJSON(t *testing.T) {
	const series = `{"start":"2016-03-01T00:00:00Z","interval_seconds":900,"kw":[1,2.5,-0,3e2]}`
	bodies := []string{
		``, ` `, `null`, `nullx`, `nul`, `{}`, `{} trailing`, `[]`, `"x"`, `12`, `true`,
		`{"contract":{"name":"a"},"load":{"series":` + series + `}}`,
		`{"contract":{"name":"a"},"loads":[{"series":` + series + `},{"profile":"peaky-month"}]}`,
		`{"Contract":{"name":"a"},"LOAD":{"Series":{"KW":[1,2]}}}`,
		`{"load":{"ſeries":{"kw":[1]}},"loadſ":[{"ſeries":{"kw":[2]}}]}`,
		`{"load":{"series":{"kw":[4]}}}`,
		`{"load":{"series":{"kw":[1,2,3],"kw":[null,5]}}}`,
		`{"load":{"series":{"kw":[1,2,3],"kw":[9],"kw":[null,null,null]}}}`,
		`{"load":{"series":{"kw":[1,2],"kw":[]}}}`,
		`{"load":{"series":{"kw":[1,2],"kw":null}}}`,
		`{"load":{"series":{"kw":null}}}`,
		`{"load":{"series":null,"series":{"interval_seconds":60}}}`,
		`{"load":{"series":{"kw":[1]},"series":{"interval_seconds":60}}}`,
		`{"loads":[{"csv":"a"},{"profile":"b"}],"loads":[{"profile":"c"}],"loads":[null,{}]}`,
		`{"loads":[{"series":{"kw":[1]}}],"loads":[{"series":{"kw":[null]}}]}`,
		`{"load":null,"loads":null}`,
		`{"load":{"profile":"x"},"load":null}`,
		`{"load":{"profile":"x"},"load":{"csv":"y"}}`,
		`{"load":{"csv":"t,kw\n2016-03-01T00:00:00Z,1\r\n\t\"\\\/\u00e9\ud83d\ude00\ud83d\ude00\udc00x"}}`,
		"{\"load\":{\"CSV\":\"a\xffb\xc3\",\"cſv\":\"\\u0041\"}}",
		`{"load":{"csv":"a","csv":null}}`,
		`{"load":{"csv":"a","csv":1}}`,
		`{"load":{"csv":["a"]}}`,
		`{"load":{"csv":"a\q"}}`,
		"{\"load\":{\"csv\":\"a\nb\"}}",
		`{"load":{"csv":"a`,
		`{"load":{"series":{"kw":[-0,1E+2,1e-2,0.5e1,123456789012345678901234567890]}}}`,
		`{"load":{"series":{"kw":[1e400]}}}`,
		`{"load":{"series":{"kw":[01]}}}`,
		`{"load":{"series":{"kw":[NaN]}}}`,
		`{"load":{"series":{"kw":[Infinity]}}}`,
		`{"load":{"series":{"kw":[0x1p3]}}}`,
		`{"load":{"series":{"kw":[+1]}}}`,
		`{"load":{"series":{"kw":[1.]}}}`,
		`{"load":{"series":{"kw":[.5]}}}`,
		`{"load":{"series":{"kw":[1e]}}}`,
		`{"load":{"series":{"kw":["1"]}}}`,
		`{"load":{"series":{"kw":[1,]}}}`,
		`{"load":{"series":{"kw":[true]}}}`,
		`{"load":{"series":{"kw":{}}}}`,
		`{"load":{"series":{"kw":"1,2"}}}`,
		`{"load":{"series":[]}}`,
		`{"load":[]}`,
		`{"load":"x"}`,
		`{"loads":{}}`,
		`{"loads":[1]}`,
		" \t\r\n{ \"load\" :\n{ \"series\" : { \"kw\" : [ 1 , null , 2 ] } } , \"feed\" : { } } \n",
		`{"load":{"series":{"kw":[1,2`,
		`{"load":{"series":{"kw":[1,2]}}`,
		`{"load":{"series":{"start":"not a time"}}}`,
		`{"load":{"series":{"interval_seconds":1.5}}}`,
		`{"search":{"seed":1},"flexibility":{"deferrable_fraction":0.1},"candidates":[{"name":"a"}]}`,
		`{"input":{"historical_peak_kw":1},"input":{"events":[]}}`,
		`{"load":{"series":{"kw":[1]}} ,}`,
		`{"a":[{"b":["é😀",true,false,null,{}]}],"load":{}}`,
		`{"a":"\x01"}`,
		`{"a":"\q"}`,
		`{"a":1 "b":2}`,
		"{\"k\xff\":1,\"load\":{}}",
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`{"a":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"a":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	}
	for _, b := range bodies {
		body := []byte(b)
		checkDecode[BillRequest](t, body)
		checkDecode[AdviseRequest](t, body)
		checkDecode[BatchRequest](t, body)
		checkDecode[OptimizeRequest](t, body)
	}
}

// inlineBatchBody is a batch of n inline loads of m full-precision
// samples each, the shape of the benchmark's batch-inline workload.
func inlineBatchBody(n, m int) []byte {
	rng := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	b.WriteString(`{"contract":{"name":"inline","tariffs":[{"type":"fixed","rate":0.07}]},"loads":[`)
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
	b.WriteString(`]}`)
	return b.Bytes()
}

var decodedBatch BatchRequest

// BenchmarkDecodeBatchInline decodes a 16 x 2880-sample inline batch
// (about 860 KB), the per-request decode of the batch-inline workload.
func BenchmarkDecodeBatchInline(b *testing.B) {
	body := inlineBatchBody(16, 2880)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		decodedBatch = BatchRequest{}
		if err := decodeRequest(body, &decodedBatch); err != nil {
			b.Fatal(err)
		}
	}
}

// inlineCSVBillBody is a bill of one inline csv load of m one-minute
// samples (m = 43200, a month, is about 1.4 MB).
func inlineCSVBillBody(m int) []byte {
	rng := rand.New(rand.NewSource(1))
	var csv strings.Builder
	csv.WriteString("timestamp,kw\n")
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	for j := range m {
		fmt.Fprintf(&csv, "%s,%v\n", start.Add(time.Duration(j)*time.Minute).Format(time.RFC3339), 9000+6000*rng.Float64())
	}
	body, err := json.Marshal(BillRequest{
		Contract: json.RawMessage(`{"name":"inline","tariffs":[{"type":"fixed","rate":0.07}]}`),
		Load:     LoadSpec{CSV: csv.String()},
	})
	if err != nil {
		panic(err)
	}
	return body
}

var decodedBill BillRequest

// BenchmarkDecodeBillInlineCSV decodes a bill whose load is a month of
// one-minute samples as inline csv: a string member, decoded by
// encoding/json rather than by the load-spine scanner.
func BenchmarkDecodeBillInlineCSV(b *testing.B) {
	body := inlineCSVBillBody(43200)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		decodedBill = BillRequest{}
		if err := decodeRequest(body, &decodedBill); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReleaseDropsRequestReferences checks that a decoder going back
// to the pool keeps nothing of its request alive: not the body, and
// not the loads its scratch buffer held, even past its length.
func TestReleaseDropsRequestReferences(t *testing.T) {
	d := &bodyDecoder{data: []byte(`{}`), loads: make([]LoadSpec, 4)}
	for i := range d.loads {
		d.loads[i] = LoadSpec{Series: &SeriesSpec{KW: []float64{1}}, Profile: "p"}
	}
	d.loads = d.loads[:1]
	d.release()
	if d.data != nil {
		t.Error("released decoder still holds the body")
	}
	for i, ls := range d.loads[:cap(d.loads)] {
		if ls != (LoadSpec{}) {
			t.Errorf("released decoder's loads scratch %d still holds %+v", i, ls)
		}
	}
}

// TestBodyBound pins the 16 MiB body bound on every gated endpoint's
// read: a body of exactly wire.MaxBodyBytes is read and billed, one
// byte more is a 400, with a Content-Length and chunked alike.
func TestBodyBound(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	bill := []byte(`{"contract":{"name":"b","tariffs":[{"type":"fixed","rate":0.07}]},"load":{"profile":"quickstart-month"}}`)
	for _, size := range []int{wire.MaxBodyBytes, wire.MaxBodyBytes + 1} {
		body := append(bytes.Repeat([]byte(" "), size-len(bill)), bill...)
		for _, withLength := range []bool{true, false} {
			var r io.Reader = bytes.NewReader(body)
			if !withLength {
				r = io.MultiReader(r) // hides the length: no Content-Length
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/bill", r)
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
			want := http.StatusOK
			if size > wire.MaxBodyBytes {
				want = http.StatusBadRequest
			}
			if resp.StatusCode != want {
				t.Fatalf("%d-byte body (Content-Length set: %v): status %d, want %d: %s", size, withLength, resp.StatusCode, want, out)
			}
			if want == http.StatusBadRequest && !strings.Contains(string(out), "bad request body: http: request body too large") {
				t.Fatalf("oversized body answered %s", out)
			}
		}
	}
}

// TestOversizedContentLengthRefusedUpFront checks that a declared
// length over the bound is refused before any of the body is read or a
// buffer for it allocated.
func TestOversizedContentLengthRefusedUpFront(t *testing.T) {
	h := NewServer(Config{}).Handler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req := httptest.NewRequest(http.MethodPost, "/v1/bill/batch", iotest.ErrReader(errors.New("oversized body was read")))
	req.ContentLength = 1 << 30
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Fatalf("status %d, want 400 without reading the body: %s", rec.Code, rec.Body)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("refusing a 1 GiB Content-Length allocated %d bytes", n)
	}
}
