package serve

// Request-body decoding in one pass. decodeRequest walks the body's
// top-level object once with the wire scanner. The load spine — load
// or loads, then series, then kw — is decoded by hand, and every kw
// sample is validated against the JSON number grammar and parsed to
// its correctly rounded value in one pass over its bytes
// (wire.ParseNumber), so samples are bit-identical to encoding/json's
// and their bytes never reach it. An inline csv string
// is unquoted by the scanner too, by encoding/json's rules. Every other
// member (contract, input, feed, profile, synthetic, start, search,
// ...) is handed to encoding/json as its own small slice and decoded
// into the existing struct, so field matching, duplicate keys and
// merges behave exactly as json.NewDecoder(bytes.NewReader(body))
// .Decode(req) does: the first JSON value counts, trailing bytes are
// ignored, keys match fields case-insensitively, a later duplicate
// decodes over an earlier one (objects merge; arrays decode element by
// element into the old backing array, where a null element keeps what
// was there), null resets pointers and slices, and an empty array gives
// an empty non-nil slice. FuzzDecodeRequest holds the two to the same
// answers.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/wire"
)

// memberFunc consumes one object member (see wire.Object).
type memberFunc = func(key []byte, k, v int) (int, error)

// bodyDecoder decodes one request body. kw and loads are the scratch
// buffers decodeSlice collects array elements in, so that each slice
// is allocated once, at its final length.
type bodyDecoder struct {
	data  []byte
	kw    []float64
	loads []LoadSpec
}

// decoders recycles bodyDecoders, so their scratch buffers grow once
// per process rather than once per request: a month of 15-minute kw
// samples is 23 KB, and growing a fresh buffer to that in every
// request would cost more than the samples themselves.
var decoders = sync.Pool{New: func() any { return new(bodyDecoder) }}

// maxPooled caps the scratch buffers a pooled decoder keeps (a month
// of one-minute samples fits), so one huge request does not pin them.
const maxPooled = 1 << 16

// release drops what d references of its request, the body and the
// decoded loads' pointers, and returns d to the pool.
func (d *bodyDecoder) release() {
	clear(d.loads[:cap(d.loads)])
	d.data = nil
	if cap(d.kw) <= maxPooled && cap(d.loads) <= maxPooled {
		decoders.Put(d)
	}
}

// decodeRequest decodes a request body into req, accepting and
// rejecting exactly the bodies json.NewDecoder(bytes.NewReader(body))
// .Decode(req) does and producing the same value.
func decodeRequest[T BillRequest | AdviseRequest | BatchRequest | OptimizeRequest](body []byte, req *T) error {
	d := decoders.Get().(*bodyDecoder)
	defer d.release()
	d.data = body
	var member memberFunc
	switch r := any(req).(type) {
	case *BillRequest:
		member = d.requestMembers(&r.Load, r)
	case *AdviseRequest:
		member = d.requestMembers(&r.Load, r)
	case *OptimizeRequest:
		member = d.requestMembers(&r.Load, r)
	case *BatchRequest:
		member = func(key []byte, k, v int) (int, error) {
			switch {
			case wire.Key(key, "load"):
				return decodePointer(d, v, 1, &r.Load, d.loadMembers)
			case wire.Key(key, "loads"):
				return decodeSlice(d, v, 1, &r.Loads, &d.loads, func(e int, ls *LoadSpec) (int, error) {
					return d.object(e, 2, d.loadMembers(ls, 3))
				})
			}
			return d.field(k, v, 1, r)
		}
	}
	i := wire.Space(body, 0)
	if i == len(body) {
		return errors.New("empty body")
	}
	_, err := d.object(i, 0, member)
	return err
}

// parseBody decodes body into req, answering 400 on failure.
func parseBody[T BillRequest | AdviseRequest | BatchRequest | OptimizeRequest](w http.ResponseWriter, body []byte, req *T) bool {
	if err := decodeRequest(body, req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// requestMembers handles a single-load request's top-level members.
func (d *bodyDecoder) requestMembers(load *LoadSpec, req any) memberFunc {
	return func(key []byte, k, v int) (int, error) {
		if wire.Key(key, "load") {
			return d.object(v, 1, d.loadMembers(load, 2))
		}
		return d.field(k, v, 1, req)
	}
}

// loadMembers handles a LoadSpec's members; depth is their values'.
func (d *bodyDecoder) loadMembers(ls *LoadSpec, depth int) memberFunc {
	return func(key []byte, k, v int) (int, error) {
		switch {
		case wire.Key(key, "series"):
			return decodePointer(d, v, depth, &ls.Series, d.seriesMembers)
		case wire.Key(key, "csv") && d.data[v] == '"':
			// Inline csv runs to megabytes: unquote it in the scan.
			csv, end, err := wire.String(d.data, v)
			if err == nil {
				ls.CSV = csv
			}
			return end, err
		}
		return d.field(k, v, depth, ls)
	}
}

// seriesMembers handles a SeriesSpec's members; depth is their values'.
func (d *bodyDecoder) seriesMembers(ss *SeriesSpec, depth int) memberFunc {
	return func(key []byte, k, v int) (int, error) {
		if wire.Key(key, "kw") {
			return decodeSlice(d, v, depth, &ss.KW, &d.kw, d.sample)
		}
		return d.field(k, v, depth, ss)
	}
}

// sample decodes one kw element: a number, or null, which keeps the
// value already there.
func (d *bodyDecoder) sample(e int, x *float64) (int, error) {
	if d.data[e] == 'n' {
		return wire.Null(d.data, e)
	}
	f, end, err := wire.ParseNumber(d.data, e)
	switch {
	case errors.Is(err, strconv.ErrRange):
		return e, fmt.Errorf("load.series.kw: number %s out of range", d.data[e:end])
	case err != nil:
		return end, fmt.Errorf("load.series.kw: %w", err)
	}
	*x = f
	return end, nil
}

// field decodes the member whose key starts at k and value at v
// through encoding/json, as the one-member object {key: value}, into
// dst. depth is the value's, for the syntax check.
func (d *bodyDecoder) field(k, v, depth int, dst any) (int, error) {
	end, err := wire.Skip(d.data, v, depth)
	if err != nil {
		return end, err
	}
	member := make([]byte, 0, end-k+2)
	member = append(member, '{')
	member = append(member, d.data[k:end]...)
	member = append(member, '}')
	return end, json.Unmarshal(member, dst)
}

// object decodes the object at data[i], which is inside depth
// containers, through member; null leaves the struct as it is.
func (d *bodyDecoder) object(i, depth int, member memberFunc) (int, error) {
	switch d.data[i] {
	case '{':
		return wire.Object(d.data, i, depth, member)
	case 'n':
		return wire.Null(d.data, i)
	}
	return i, d.typeError(i, "object")
}

func (d *bodyDecoder) typeError(i int, want string) error {
	return fmt.Errorf("want %s or null at offset %d, have %q", want, i, d.data[i])
}

// decodePointer decodes the object or null at data[v] into *p: null
// sets nil, an object decodes into the existing value or a new one.
// members builds the member handler for *p at depth+1.
func decodePointer[T any](d *bodyDecoder, v, depth int, p **T, members func(*T, int) memberFunc) (int, error) {
	switch d.data[v] {
	case 'n':
		end, err := wire.Null(d.data, v)
		if err == nil {
			*p = nil
		}
		return end, err
	case '{':
		if *p == nil {
			*p = new(T)
		}
		return wire.Object(d.data, v, depth, members(*p, depth+1))
	}
	return v, d.typeError(v, "object")
}

// decodeSlice decodes the array or null at data[v] into *dst: null
// sets nil; elements decode in place over the existing backing array
// up to its capacity (elem sees what is there), the slice is cut to
// the array's length, and an empty array gives an empty non-nil slice.
// Elements past the old capacity start zero and decode into the
// scratch buffer *buf, and a slice that outgrows its backing array is
// allocated once, at its final length. elem must not decode into *buf.
func decodeSlice[E any](d *bodyDecoder, v, depth int, dst *[]E, buf *[]E, elem func(e int, x *E) (int, error)) (int, error) {
	switch d.data[v] {
	case 'n':
		end, err := wire.Null(d.data, v)
		if err == nil {
			*dst = nil
		}
		return end, err
	case '[':
	default:
		return v, d.typeError(v, "array")
	}
	old, tail, n := (*dst)[:cap(*dst)], (*buf)[:0], 0
	var zero E
	end, err := wire.Array(d.data, v, depth, func(e int) (int, error) {
		n++
		if n <= len(old) {
			return elem(e, &old[n-1])
		}
		tail = append(tail, zero)
		return elem(e, &tail[len(tail)-1])
	})
	*buf = tail
	if err != nil {
		return end, err
	}
	switch {
	case n == 0:
		*dst = []E{}
	case n <= len(old):
		*dst = old[:n]
	default:
		*dst = slices.Concat(old, tail)
	}
	return end, nil
}
