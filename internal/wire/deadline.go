package wire

import (
	"net/http"
	"strconv"
	"strings"
)

// DeadlineHeader carries a request's remaining budget in integer
// milliseconds. scroute stamps it on every forward, and both daemons
// tighten their configured timeout by it, so a backend stops
// evaluating bills the caller has already abandoned.
const DeadlineHeader = "X-SCBill-Deadline-Ms"

// Deadline parses h's DeadlineHeader. ok is false when the header is
// absent or not an integer; callers then ignore it. A budget of
// ms <= 0 is already spent.
func Deadline(h http.Header) (ms int64, ok bool) {
	ms, err := strconv.ParseInt(strings.TrimSpace(h.Get(DeadlineHeader)), 10, 64)
	return ms, err == nil
}
