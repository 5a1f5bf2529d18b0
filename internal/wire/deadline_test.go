package wire

import (
	"net/http"
	"testing"
)

// TestDeadline pins the propagated-budget parse both daemons share: an
// absent or non-integer header is ignored, surrounding space is
// trimmed, and zero or negative budgets come back for the caller to
// refuse.
func TestDeadline(t *testing.T) {
	cases := []struct {
		value  string
		set    bool
		ms     int64
		wantOK bool
	}{
		{set: false},
		{value: "", set: true},
		{value: "250", set: true, ms: 250, wantOK: true},
		{value: " 40 ", set: true, ms: 40, wantOK: true},
		{value: "0", set: true, ms: 0, wantOK: true},
		{value: "-7", set: true, ms: -7, wantOK: true},
		{value: "1.5", set: true},
		{value: "soon", set: true},
	}
	for _, c := range cases {
		h := http.Header{}
		if c.set {
			h.Set(DeadlineHeader, c.value)
		}
		ms, ok := Deadline(h)
		if ok != c.wantOK || (ok && ms != c.ms) {
			t.Errorf("Deadline(%q set=%v) = %d, %v; want %d, %v", c.value, c.set, ms, ok, c.ms, c.wantOK)
		}
	}
}
