package serve

// The rendering the service's appenders replaced, kept as the oracle
// the byte-identity tests hold them to: encoding/json over the bill's
// serialized shape, the monthly object with its bills embedded as
// json.RawMessage, the splice that marked a degraded answer, and the
// batch envelope copied together around rendered bodies.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/feed"
)

// referenceBillShape is the serialized bill shape (contract's billJSON).
type referenceBillShape struct {
	Contract    string               `json:"contract"`
	PeriodStart time.Time            `json:"period_start"`
	PeriodEnd   time.Time            `json:"period_end"`
	EnergyKWh   float64              `json:"energy_kwh"`
	PeakKW      float64              `json:"peak_kw"`
	Lines       []referenceLineShape `json:"lines"`
	Total       float64              `json:"total"`
	DemandShare float64              `json:"demand_share"`
}

type referenceLineShape struct {
	Component   string  `json:"component"`
	Description string  `json:"description"`
	Quantity    string  `json:"quantity"`
	Amount      float64 `json:"amount"`
}

// referenceBill is a bill as /v1/bill served it through encoding/json.
func referenceBill(b *contract.Bill) ([]byte, error) {
	out := referenceBillShape{
		Contract:    b.Contract,
		PeriodStart: b.PeriodStart,
		PeriodEnd:   b.PeriodEnd,
		EnergyKWh:   float64(b.Energy),
		PeakKW:      float64(b.PeakDemand),
		Total:       b.Total.Float(),
		DemandShare: b.DemandShare(),
	}
	for _, l := range b.Lines {
		out.Lines = append(out.Lines, referenceLineShape{
			Component:   l.Component.String(),
			Description: l.Description,
			Quantity:    l.Quantity,
			Amount:      l.Amount.Float(),
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// referenceMonthly is the /v1/bill?monthly=1 body, before its trailing
// newline, as encoding/json rendered it.
func referenceMonthly(name string, bills []*contract.Bill, fr feedResolution) ([]byte, error) {
	months := make([]json.RawMessage, len(bills))
	for i, b := range bills {
		data, err := referenceBill(b)
		if err != nil {
			return nil, err
		}
		months[i] = data
	}
	reason := ""
	if fr.degraded() {
		reason = fr.reason
	}
	return json.MarshalIndent(struct {
		Contract       string            `json:"contract"`
		Months         []json.RawMessage `json:"months"`
		GrandTotal     float64           `json:"grand_total"`
		Degraded       bool              `json:"degraded,omitempty"`
		DegradedReason string            `json:"degraded_reason,omitempty"`
	}{name, months, contract.TotalOf(bills).Float(), fr.degraded(), reason}, "", "  ")
}

// referenceMarkDegraded splices "degraded": true and the reason into a
// rendered top-level object, as degraded answers were marked.
func referenceMarkDegraded(data []byte, reason string) []byte {
	i := bytes.LastIndexByte(data, '}')
	if i < 0 {
		return data
	}
	reasonJSON, _ := json.Marshal(reason)
	var b bytes.Buffer
	b.Grow(len(data) + len(reasonJSON) + 64)
	b.Write(bytes.TrimRight(data[:i], " \t\n"))
	b.WriteString(",\n  \"degraded\": true,\n  \"degraded_reason\": ")
	b.Write(reasonJSON)
	b.WriteString("\n}")
	b.Write(data[i+1:])
	return b.Bytes()
}

// referenceItem is one batch item as the reference envelope embeds it.
type referenceItem struct {
	status   int
	degraded bool
	body     []byte
}

// referenceEnvelope is the /v1/bill/batch response around rendered item
// bodies, as it was assembled by copying each body in.
func referenceEnvelope(items []referenceItem) []byte {
	var buf bytes.Buffer
	buf.WriteString("{\n  \"count\": ")
	buf.WriteString(strconv.Itoa(len(items)))
	buf.WriteString(",\n  \"items\": [")
	for i, it := range items {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString("\n    {\"status\": ")
		buf.WriteString(strconv.Itoa(it.status))
		if it.degraded {
			buf.WriteString(", \"degraded\": true")
		}
		buf.WriteString(", \"body\": ")
		buf.Write(it.body)
		buf.WriteByte('}')
	}
	buf.WriteString("\n  ]\n}\n")
	return buf.Bytes()
}

// degradedResolution is the feed resolution of a degraded answer with
// the given reason.
func degradedResolution(reason string) feedResolution {
	return feedResolution{used: true, state: feed.Degraded, reason: reason}
}

// TestAppendDegradedMatchesSplice: the in-place marker writes what the
// splice wrote, on a bill and on any indented top-level object, for
// reasons that need escaping.
func TestAppendDegradedMatchesSplice(t *testing.T) {
	bill := &contract.Bill{
		Contract:    "site",
		PeriodStart: time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC),
		PeriodEnd:   time.Date(2016, time.April, 1, 0, 0, 0, 0, time.UTC),
		Lines:       []contract.LineItem{{Component: contract.CompFlatFee, Description: "fee", Amount: 450e6}},
		Total:       450e6,
	}
	billJSON, err := referenceBill(bill)
	if err != nil {
		t.Fatal(err)
	}
	other, err := json.MarshalIndent(struct {
		A []int `json:"a"`
	}{[]int{1, 2}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, reason := range []string{
		"", "feed unavailable (503) and no usable cached prices",
		"<html> & \"quotes\" \\ \n\t\x00 \xff \xe2\x80\xa8",
	} {
		for _, data := range [][]byte{billJSON, other} {
			want := referenceMarkDegraded(data, reason)
			if got := appendDegraded(bytes.Clone(data), reason); !bytes.Equal(got, want) {
				t.Errorf("reason %q:\n%s\nsplice:\n%s", reason, got, want)
			}
		}
		got, status := appendOutcome(nil, nil, contract.BatchOutcome{Bill: bill}, degradedResolution(reason), false)
		if want := referenceMarkDegraded(billJSON, reason); status != 200 || !bytes.Equal(got, want) {
			t.Errorf("degraded bill, reason %q: %d\n%s\nsplice:\n%s", reason, status, got, want)
		}
	}
}

// TestAppendMonthlyMatchesReference: the monthly object, with no
// months, with a year of them, healthy and degraded (a degraded answer
// without a reason omits the reason, as omitempty did), is the
// reference rendering.
func TestAppendMonthlyMatchesReference(t *testing.T) {
	c, err := quickstartSpec().Build(contract.BuildContext{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := contract.NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	year, err := eng.BillMonths(namedLoad(t, "year-in-life"), contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bills := range [][]*contract.Bill{nil, year[:1], year} {
		for _, fr := range []feedResolution{{}, degradedResolution(""), degradedResolution("feed <down> & \"out\"")} {
			want, err := referenceMonthly(c.Name, bills, fr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendMonthlyBody([]byte("x"), eng, bills, fr)
			if err != nil || !bytes.Equal(got[1:], want) {
				t.Errorf("%d months, %+v: %v\n%s\nreference:\n%s", len(bills), fr, err, got[1:], want)
			}
		}
	}
}

// TestPairItemEncodeFailure: a bill encoding/json cannot render (here a
// period in year 10000) answers 500 with encoding/json's error, not
// marked degraded, whether alone or as a batch item.
func TestPairItemEncodeFailure(t *testing.T) {
	bill := &contract.Bill{Contract: "far", PeriodStart: time.Date(10000, time.January, 1, 0, 0, 0, 0, time.UTC)}
	_, refErr := referenceBill(bill)
	if refErr == nil {
		t.Fatal("the reference renders year 10000")
	}
	msg, err := json.Marshal(refErr.Error())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":` + string(msg) + `}`
	out := contract.BatchOutcome{Bill: bill}
	for _, fr := range []feedResolution{{}, degradedResolution("down")} {
		got, status := appendOutcome([]byte("x"), nil, out, fr, false)
		if status != http.StatusInternalServerError || string(got) != "x"+want {
			t.Errorf("alone: %d %s, want 500 %s", status, got, want)
		}
		item := appendPairItem([]byte("x"), nil, out, fr, false)
		if wantItem := "x\n    {\"status\": 500, \"body\": " + want + "}"; string(item) != wantItem {
			t.Errorf("batch item:\n%s\nwant\n%s", item, wantItem)
		}
	}
}
