package wire

import (
	"io"
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"
)

// MaxBodyBytes bounds request bodies on both daemons (an inline CSV
// year at one-minute resolution fits comfortably).
const MaxBodyBytes = 16 << 20

// maxPresize caps the buffer ReadBody allocates before any of the body
// has arrived (an inline batch of 16 month loads, about 860 KB, still
// fits), so a client cannot make a daemon hold MaxBodyBytes by
// declaring it and then stalling. It is also the largest buffer kept
// for reuse.
const maxPresize = 1 << 20

// minClass is the smallest pooled buffer, and a chunked body's first.
const minClass = 512

// pools[k] keeps released buffers of capacity minClass<<k, up to
// maxPresize. They hold *[]byte so that a Put does not allocate.
var pools = make([]sync.Pool, bits.Len(maxPresize/minClass))

// class returns the pool of the smallest class that holds n bytes,
// 0 < n <= maxPresize.
func class(n int) int { return bits.Len(uint(n-1) / minClass) }

// get returns an empty buffer of at least n bytes' capacity, n <=
// maxPresize, from its class's pool or newly made.
func get(n int) *[]byte {
	k := class(n)
	if p, _ := pools[k].Get().(*[]byte); p != nil {
		return p
	}
	b := make([]byte, 0, minClass<<k)
	return &b
}

// put returns a buffer get made to its pool. A buffer that appends
// grew past its class is left to the collector, so that each pool
// keeps buffers of its class's capacity alone.
func put(p *[]byte) {
	b := (*p)[:cap(*p)]
	k := class(len(b))
	if len(b) < minClass || len(b) > maxPresize || len(b) != minClass<<k {
		return
	}
	if poison.Load() {
		for i := range b {
			b[i] = PoisonByte
		}
	}
	*p = b[:0]
	pools[k].Put(p)
}

// GetBuffer returns an empty buffer of at least n bytes' capacity, at
// most maxPresize, from the pools ReadBody draws on, for a caller that
// renders a response by appending to *p. Hand it back with
// ReleaseBuffer once nothing reads it any more.
func GetBuffer(n int) *[]byte {
	return get(min(max(n, 1), maxPresize))
}

// ReleaseBuffer returns a buffer GetBuffer made for a later GetBuffer
// or ReadBody to reuse, unless appends to *p grew it past its class.
// Call it exactly once, when nothing reads *p any more.
func ReleaseBuffer(p *[]byte) { put(p) }

// poison is the test hook PoisonReleased switches on.
var poison atomic.Bool

// PoisonByte is what PoisonReleased fills released buffers with: a
// byte no UTF-8 text holds.
const PoisonByte = 0xff

// PoisonReleased makes every Release, until the returned function is
// called, fill its buffer with PoisonByte before pooling it, so that a
// test sees any reader that still uses a body after releasing it. It
// is for tests only.
func PoisonReleased() (stop func()) {
	poison.Store(true)
	return func() { poison.Store(false) }
}

// Body is a request body ReadBody read. Bytes may live in a pooled
// buffer, which Release hands back for reuse.
type Body struct {
	Bytes  []byte
	pooled *[]byte // the buffer Bytes lives in, when it came from a pool
}

// Release returns the body's buffer for a later ReadBody to reuse.
// Call it exactly once, when nothing reads Bytes, or anything sliced
// from them, any more. A zero Body's Release does nothing.
func (b Body) Release() {
	if b.pooled != nil {
		put(b.pooled)
	}
}

// ReadBody reads r's body into a single buffer. A body that declares
// its Content-Length starts with a buffer of that size (plus the one
// byte that lets the final read see EOF without growing it), capped at
// maxPresize; past the cap the buffer doubles as bytes arrive, never
// beyond the declared size. A chunked body doubles from minClass.
// Buffers up to maxPresize come from size-classed pools, rounded up to
// their class, and go back there on Release; larger ones are made to
// measure and left to the collector. A declared length over
// MaxBodyBytes is refused before anything is read or allocated, and
// http.MaxBytesReader enforces the bound on chunked bodies; both fail
// with *http.MaxBytesError.
func ReadBody(w http.ResponseWriter, r *http.Request) (Body, error) {
	if r.Body == nil {
		return Body{}, nil
	}
	if r.ContentLength > MaxBodyBytes {
		return Body{}, &http.MaxBytesError{Limit: MaxBodyBytes}
	}
	size, limit := minClass, MaxBodyBytes+1
	if r.ContentLength > 0 {
		limit = int(r.ContentLength) + 1
		size = min(limit, maxPresize)
	}
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	b := Body{pooled: get(size)}
	b.Bytes = *b.pooled
	for {
		n, err := body.Read(b.Bytes[len(b.Bytes):cap(b.Bytes)])
		b.Bytes = b.Bytes[:len(b.Bytes)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			b.Release()
			return Body{}, err
		}
		if len(b.Bytes) == cap(b.Bytes) {
			b = b.grow(limit)
		}
	}
}

// grow moves a full body into a buffer of twice the capacity, or of
// limit if that is smaller and still larger than the buffer, pooled
// while it fits in maxPresize, and releases the old one.
func (b Body) grow(limit int) Body {
	n := 2 * cap(b.Bytes)
	if cap(b.Bytes) < limit {
		n = min(n, limit)
	}
	next := Body{}
	if n <= maxPresize {
		next.pooled = get(n)
		next.Bytes = append(*next.pooled, b.Bytes...)
	} else {
		next.Bytes = append(make([]byte, 0, n), b.Bytes...)
	}
	b.Release()
	return next
}
