package contract

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
	"repro/internal/wire"
)

// referenceJSON is the rendering AppendJSON replaced, kept as its
// oracle: billJSON through encoding/json, with every line after the
// first prefixed by indent.
func referenceJSON(b *Bill, indent string) ([]byte, error) {
	out := billJSON{
		Contract:    b.Contract,
		PeriodStart: b.PeriodStart,
		PeriodEnd:   b.PeriodEnd,
		EnergyKWh:   float64(b.Energy),
		PeakKW:      float64(b.PeakDemand),
		Total:       b.Total.Float(),
		DemandShare: b.DemandShare(),
	}
	for _, l := range b.Lines {
		out.Lines = append(out.Lines, lineItemJSON{
			Component:   l.Component.String(),
			Description: l.Description,
			Quantity:    l.Quantity,
			Amount:      l.Amount.Float(),
		})
	}
	return json.MarshalIndent(out, indent, "  ")
}

// referenceMarkDegraded is the splice that marked a degraded bill
// before the marker was written in place.
func referenceMarkDegraded(data []byte, reason string) []byte {
	i := bytes.LastIndexByte(data, '}')
	if i < 0 {
		return data
	}
	reasonJSON, _ := json.Marshal(reason)
	var b bytes.Buffer
	b.Write(bytes.TrimRight(data[:i], " \t\n"))
	b.WriteString(",\n  \"degraded\": true,\n  \"degraded_reason\": ")
	b.Write(reasonJSON)
	b.WriteString("\n}")
	b.Write(data[i+1:])
	return b.Bytes()
}

// markInPlace writes the degraded marker the way the service does:
// it reopens the top-level bill AppendJSON closed and closes it again
// after the two members.
func markInPlace(dst []byte, reason string) []byte {
	dst = append(dst[:len(dst)-len("\n}")], ",\n  \"degraded\": true,\n  \"degraded_reason\": "...)
	dst = wire.AppendString(dst, reason)
	return append(dst, "\n}"...)
}

// checkAppendJSON holds AppendJSON to the reference at the top level
// and nested four spaces deep, appended after a prefix it must keep,
// and with the degraded marker: the same bytes, or an error wherever
// the reference errs, with dst left as it was.
func checkAppendJSON(t *testing.T, b *Bill, reason string) {
	t.Helper()
	prefix := []byte("prefix:")
	for _, indent := range []string{"", "    "} {
		want, wantErr := referenceJSON(b, indent)
		got, err := b.AppendJSON(append([]byte(nil), prefix...), indent)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("indent %q: AppendJSON error %v, reference error %v", indent, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("indent %q: error %q, reference %q", indent, err, wantErr)
			}
			if !bytes.Equal(got, prefix) {
				t.Fatalf("indent %q: failed append left %q, want the prefix alone", indent, got)
			}
			continue
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("indent %q:\n%s\nreference:\n%s", indent, got[len(prefix):], want)
		}
		if indent == "" {
			marked := markInPlace(got, reason)
			if want := referenceMarkDegraded(want, reason); !bytes.Equal(marked[len(prefix):], want) {
				t.Fatalf("degraded:\n%s\nreference:\n%s", marked[len(prefix):], want)
			}
		}
	}
}

// TestAppendJSONMatchesReference holds every golden bill, monthly and
// whole-period, to the reference rendering.
func TestAppendJSONMatchesReference(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			bill, err := ComputeBill(tc.c, tc.load, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			checkAppendJSON(t, bill, "feed unavailable <down> & stale")
			months, err := BillMonths(tc.c, tc.load, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range months {
				checkAppendJSON(t, m, "")
			}
		})
	}
}

// TestAppendJSONNoLines: a bill with no lines renders "lines": null,
// whether its slice is nil or empty, as the reference does.
func TestAppendJSONNoLines(t *testing.T) {
	for _, lines := range [][]LineItem{nil, {}} {
		b := &Bill{Contract: "empty", Lines: lines}
		got, err := b.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(got, []byte(`"lines": null`)) {
			t.Errorf("lines %#v rendered:\n%s", lines, got)
		}
		checkAppendJSON(t, b, "r")
	}
}

// FuzzBillJSON holds AppendJSON to the reference on arbitrary strings
// (control bytes, <>&, invalid UTF-8, the line separators), floats at
// the 1e-6 and 1e21 format edges, -0, NaN and the infinities, and
// times at and past RFC 3339's year range with odd zone offsets.
func FuzzBillJSON(f *testing.F) {
	f.Add("site <a&b>", "energy\x00\x1f\"\\", "8.40 GWh\xe2\x80\xa8\xe2\x80\xa9", 1e-6, 1e21, int64(123456789), 2016, 3600, int64(0), uint8(2), "feed down\xff")
	f.Add("", "", "", 9.99999e-7, 9.99999e20, int64(-1), 0, 0, int64(999999999), uint8(1), "")
	f.Add("x", "\b\f\n\r\t", "\x7f\xc3", math.Copysign(0, -1), -1e-7, int64(0), 9999, -86340, int64(1), uint8(3), "<>&")
	f.Add("y", "d", "q", math.NaN(), 1.0, int64(5), 10000, 19800, int64(5), uint8(1), "r")
	f.Add("y", "d", "q", math.Inf(1), math.Inf(-1), int64(5), -1, 86400, int64(0), uint8(0), "r")
	f.Add("z", "d", "q", 5e-324, math.MaxFloat64, int64(math.MaxInt64), 1, -86400, int64(100), uint8(2), "\xed\xa0\x80")
	f.Fuzz(func(t *testing.T, name, desc, qty string, energy, peak float64, amount int64,
		year, offset int, nanos int64, nLines uint8, reason string) {
		// time.Date normalizes the zone offset freely; keep it within
		// two days so the year stays near the one asked for.
		zone := time.FixedZone("fz", offset%(2*86400))
		start := time.Date(year, time.March, 1, 0, 0, 0, int(nanos%1e9), zone)
		b := &Bill{
			Contract:    name,
			PeriodStart: start,
			PeriodEnd:   start.Add(31 * 24 * time.Hour),
			Energy:      units.Energy(energy),
			PeakDemand:  units.Power(peak),
		}
		for i := 0; i < int(nLines%4); i++ {
			amt := units.Money(amount >> (8 * i))
			b.Lines = append(b.Lines, LineItem{
				Component:   Component(i*3 - 1),
				Description: strings.Repeat(desc, i+1),
				Quantity:    qty,
				Amount:      amt,
			})
			b.Total += amt
		}
		checkAppendJSON(t, b, reason)
	})
}
