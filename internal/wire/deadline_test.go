package wire

import (
	"math"
	"net/http"
	"testing"
	"time"
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

// TestTighten pins how a propagated budget applies: a smaller one
// replaces the configured budget, and a larger one, up to the largest
// int64 that does not fit a time.Duration once scaled, keeps it.
func TestTighten(t *testing.T) {
	cases := []struct {
		configured time.Duration
		ms         int64
		want       time.Duration
	}{
		{30 * time.Second, 250, 250 * time.Millisecond},
		{30 * time.Second, 29999, 29999 * time.Millisecond},
		{30 * time.Second, 30000, 30 * time.Second},
		{30 * time.Second, 30001, 30 * time.Second},
		{30 * time.Second, 60000, 30 * time.Second},
		{30 * time.Second, 9300000000000, 30 * time.Second},
		{30 * time.Second, math.MaxInt64, 30 * time.Second},
		{1500 * time.Microsecond, 1, time.Millisecond},
		{1500 * time.Microsecond, 2, 1500 * time.Microsecond},
		{time.Duration(math.MaxInt64), math.MaxInt64, time.Duration(math.MaxInt64)},
		{time.Duration(math.MaxInt64), math.MaxInt64 / 1000000, math.MaxInt64 / 1000000 * time.Millisecond},
	}
	for _, c := range cases {
		if got := Tighten(c.configured, c.ms); got != c.want {
			t.Errorf("Tighten(%v, %d) = %v, want %v", c.configured, c.ms, got, c.want)
		}
	}
}
