package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/contract"
)

// billInProcess bills one batch item from scratch with the public calls
// /v1/bill makes, sharing no load, parse, engine or encoding with the
// batch path, and rendered by the reference encoding/json path: the
// bytes a 200 item must carry on a server without a configured price
// feed.
func billInProcess(raw json.RawMessage, ls LoadSpec, req *BatchRequest, monthly bool) ([]byte, error) {
	load, err := resolveLoad(ls)
	if err != nil {
		return nil, err
	}
	spec, err := contract.ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	var bctx contract.BuildContext
	if specNeedsFeed(spec) {
		rate := contract.FlatFeedRate
		if req.Feed != nil && req.Feed.FlatRatePerKWh > 0 {
			rate = req.Feed.FlatRatePerKWh
		}
		bctx.Feed = referenceFeed(load, rate)
	}
	c, err := spec.Build(bctx)
	if err != nil {
		return nil, err
	}
	eng, err := contract.NewEngine(c)
	if err != nil {
		return nil, err
	}
	in := resolveInput(req.Input)
	if monthly {
		bills, err := eng.BillMonths(load, in)
		if err != nil {
			return nil, err
		}
		return referenceMonthly(eng.Contract().Name, bills, feedResolution{})
	}
	bill, err := eng.Bill(load, in)
	if err != nil {
		return nil, err
	}
	return referenceBill(bill)
}

// FuzzBatchRequest drives arbitrary bodies through POST /v1/bill/batch.
// Every body must answer 4xx, or 200 with each item either a 4xx error
// or exactly the in-process bill of its (spec, load) pair; never a 5xx,
// and the admission gate must be empty again afterwards. The seed corpus
// in testdata/fuzz repeats profiles, synthetic parameter sets and specs,
// and mixes in broken items.
func FuzzBatchRequest(f *testing.F) {
	s := NewServer(Config{})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte, monthly bool) {
		path := "/v1/bill/batch"
		if monthly {
			path += "?monthly=1"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if n := s.Inflight(); n != 0 {
			t.Fatalf("%d requests still in flight after the response", n)
		}
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			return
		case rec.Code != http.StatusOK:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}

		var req BatchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		specs, loads, err := req.shape()
		if err != nil {
			t.Fatalf("200 for a badly shaped batch: %v", err)
		}
		var env batchEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("envelope does not parse: %v\n%s", err, rec.Body)
		}
		n := max(len(specs), len(loads))
		if env.Count != n || len(env.Items) != n {
			t.Fatalf("count %d with %d items, want %d", env.Count, len(env.Items), n)
		}
		for i, it := range env.Items {
			if it.Status >= 400 && it.Status < 500 {
				continue
			}
			if it.Status != http.StatusOK {
				t.Fatalf("item %d status %d: %s", i, it.Status, it.Body)
			}
			si, li := min(i, len(specs)-1), min(i, len(loads)-1)
			want, err := billInProcess(specs[si], loads[li], &req, monthly)
			if err != nil {
				t.Fatalf("item %d is 200 but bills in process with %v", i, err)
			}
			if !bytes.Equal(it.Body, want) {
				t.Fatalf("item %d differs from the in-process bill:\n%s\nvs\n%s", i, it.Body, want)
			}
		}
	})
}
