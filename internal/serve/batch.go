package serve

// POST /v1/bill/batch: one load profile × N contract specs, or N load
// profiles × one contract spec, billed as a single admitted request.
// Each distinct (spec, load) pair is resolved, evaluated and encoded
// once. Repeated profile names and synthetic parameter sets share one
// generated series; repeated spec bytes share one parse and content
// hash; engines come from the LRU; items resolving to the same
// (engine, load, feed resolution) share one evaluation on the contract
// batch pool and one rendered body, so batch_encode is recorded per
// distinct pair, not per item. Inline csv/series loads are never
// compared by content (their decode is already paid), and nothing is
// kept across requests. Every item's body is byte-identical to what a
// sequential /v1/bill call with the same inputs would have returned —
// the envelope is assembled by hand so rendered bills embed verbatim,
// never re-marshalled — and degraded feed resolutions mark only the
// items they affected.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/contract"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// maxBatchItems bounds one batch request: enough for a year of monthly
// re-bids or a healthy candidate sweep, small enough that a single
// request cannot monopolize the service.
const maxBatchItems = 64

// BatchRequest is the POST /v1/bill/batch body. Exactly one of
// Contract/Contracts and exactly one of Load/Loads must be set, and at
// most one side may be plural.
type BatchRequest struct {
	Contract  json.RawMessage   `json:"contract,omitempty"`
	Contracts []json.RawMessage `json:"contracts,omitempty"`
	Load      *LoadSpec         `json:"load,omitempty"`
	Loads     []LoadSpec        `json:"loads,omitempty"`
	Input     *InputSpec        `json:"input,omitempty"`
	Feed      *FeedSpec         `json:"feed,omitempty"`
}

// shape validates the request and returns the spec and load lists.
func (req *BatchRequest) shape() (specs []json.RawMessage, loads []LoadSpec, err error) {
	switch {
	case len(req.Contract) > 0 && len(req.Contracts) > 0:
		return nil, nil, errors.New("batch: set contract or contracts, not both")
	case len(req.Contract) > 0:
		specs = []json.RawMessage{req.Contract}
	case len(req.Contracts) > 0:
		specs = req.Contracts
	default:
		return nil, nil, errors.New("batch: missing contract or contracts")
	}
	switch {
	case req.Load != nil && len(req.Loads) > 0:
		return nil, nil, errors.New("batch: set load or loads, not both")
	case req.Load != nil:
		loads = []LoadSpec{*req.Load}
	case len(req.Loads) > 0:
		loads = req.Loads
	default:
		return nil, nil, errors.New("batch: missing load or loads")
	}
	if len(specs) > 1 && len(loads) > 1 {
		return nil, nil, errors.New("batch: one load x N contracts or N loads x one contract, not N x M")
	}
	if n := max(len(specs), len(loads)); n > maxBatchItems {
		return nil, nil, fmt.Errorf("batch: %d items exceeds the limit of %d", n, maxBatchItems)
	}
	return specs, loads, nil
}

// batchItemResult is one item's rendered outcome.
type batchItemResult struct {
	status   int
	degraded bool
	body     []byte
}

func batchErrorBody(msg string) []byte {
	data, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	return data
}

// evalError maps an evaluation error onto a status and message:
// deadline and cancellation become 504 (the request ran out of time
// mid-evaluation), anything else is a client-side contract/load problem.
func evalError(err error) (int, string) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout, "evaluation exceeded the request deadline"
	}
	return http.StatusBadRequest, err.Error()
}

func (s *Server) handleBillBatch(w http.ResponseWriter, r *http.Request, body []byte) {
	var req BatchRequest
	if !parseBody(w, body, &req) {
		return
	}
	specs, loadSpecs, err := req.shape()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	n := max(len(specs), len(loadSpecs))
	monthly := r.URL.Query().Get("monthly") == "1"
	s.metrics.batchRequests.Add(1)
	s.metrics.batchItems.Add(uint64(n))

	// Resolve every distinct load once: repeated profile names and
	// synthetic parameter sets share one immutable series. Inline loads
	// are never compared by content.
	loads := make([]*timeseries.PowerSeries, len(loadSpecs))
	loadErrs := make([]error, len(loadSpecs))
	seenLoads := make(map[generatedLoad]int, len(loadSpecs))
	for i, ls := range loadSpecs {
		key, generated := generatedLoadKey(ls)
		if j, ok := seenLoads[key]; generated && ok {
			loads[i], loadErrs[i] = loads[j], loadErrs[j]
			continue
		}
		if generated {
			seenLoads[key] = i
		}
		loads[i], loadErrs[i] = resolveLoad(ls)
	}
	// Parse every distinct spec once (repeated raw bytes share a parse).
	parsed := make([]parsedSpec, len(specs))
	specErrs := make([]error, len(specs))
	seen := make(map[string]int, len(specs))
	for i, raw := range specs {
		if j, ok := seen[string(raw)]; ok {
			parsed[i], specErrs[i] = parsed[j], specErrs[j]
			continue
		}
		parsed[i], specErrs[i] = parseSpecRaw(raw)
		seen[string(raw)] = i
	}

	// Per-item engine resolution. The LRU makes repeated (spec, feed)
	// pairs compile once. A configured price feed is resolved over each
	// item's load span, so resolution is per item even in one-contract
	// mode. Items resolving to the same (engine, load, feed resolution)
	// share one evaluation.
	results := make([]batchItemResult, n)
	pair := make([]int, n)
	pairOf := make(map[batchPair]int, n)
	var items []contract.BatchItem
	var frs []feedResolution
	var worst feedResolution
	for i := 0; i < n; i++ {
		si, li := 0, 0
		if len(specs) > 1 {
			si = i
		}
		if len(loadSpecs) > 1 {
			li = i
		}
		switch {
		case specErrs[si] != nil:
			results[i] = batchItemResult{status: http.StatusBadRequest, body: batchErrorBody(specErrs[si].Error())}
		case loadErrs[li] != nil:
			results[i] = batchItemResult{status: http.StatusBadRequest, body: batchErrorBody(loadErrs[li].Error())}
		default:
			eng, fr, err := s.engineForSpec(r.Context(), parsed[si], req.Feed, loads[li])
			if err != nil {
				results[i] = batchItemResult{status: http.StatusBadRequest, body: batchErrorBody(err.Error())}
				continue
			}
			worst = worst.worse(fr)
			p := batchPair{item: contract.BatchItem{Engine: eng, Load: loads[li]}, fr: fr}
			d, ok := pairOf[p]
			if !ok {
				d = len(items)
				pairOf[p] = d
				items = append(items, p.item)
				frs = append(frs, fr)
			}
			pair[i] = d
		}
	}

	if hook := s.billHook; hook != nil {
		hook(r.Context())
	}

	// Evaluate the distinct pairs across the batch pool.
	endEval := obs.Span(r.Context(), stageBatchEvaluate)
	outcomes := contract.BillBatch(r.Context(), items, resolveInput(req.Input), contract.BatchOptions{
		Monthly:      monthly,
		Workers:      s.cfg.MaxConcurrent,
		MonthWorkers: s.cfg.MonthWorkers,
	})
	endEval()

	// Encode each distinct pair once: exactly the bytes a sequential
	// /v1/bill response would carry (markDegraded splice included),
	// shared by every item that maps to it.
	encoded := make([]batchItemResult, len(items))
	for d := range items {
		endEncode := obs.Span(r.Context(), stageBatchEncode)
		encoded[d] = s.encodeBatchItem(items[d].Engine, outcomes[d], frs[d], monthly)
		endEncode()
	}
	for i := range results {
		if results[i].status == 0 {
			results[i] = encoded[pair[i]]
		}
	}

	s.noteFeed(w, worst)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(renderBatchEnvelope(results))
}

// generatedLoad identifies a load the server generates from request
// parameters — a named profile or a synthetic parameter set — so
// repeats within one batch share a single series. Named profiles need
// the key too: their pool is per P, so a handler that moves to another
// P mid-batch could get a second pointer for the same name, and
// batchPair, which compares loads by pointer, would bill the pair
// twice. Comparing the synthetic start with == also compares its
// location, which can only keep equal instants apart, never merge
// different ones.
type generatedLoad struct {
	profile   string
	synthetic SyntheticSpec
}

// generatedLoadKey returns the dedupe key of a well-formed generated
// load. Inline loads (and malformed specs, which fail resolveLoad) are
// not keyed.
func generatedLoadKey(ls LoadSpec) (generatedLoad, bool) {
	if ls.CSV != "" || ls.Series != nil || (ls.Profile != "") == (ls.Synthetic != nil) {
		return generatedLoad{}, false
	}
	if ls.Synthetic != nil {
		return generatedLoad{synthetic: *ls.Synthetic}, true
	}
	return generatedLoad{profile: ls.Profile}, true
}

// batchPair is one distinct evaluation of a batch: items with equal
// pairs share the outcome and its encoded bytes. The feed resolution is
// part of the key because it decides the degraded marking.
type batchPair struct {
	item contract.BatchItem
	fr   feedResolution
}

// encodeBatchItem renders one evaluated item.
func (s *Server) encodeBatchItem(eng *contract.Engine, out contract.BatchOutcome, fr feedResolution, monthly bool) batchItemResult {
	if out.Err != nil {
		status, msg := evalError(out.Err)
		return batchItemResult{status: status, body: batchErrorBody(msg)}
	}
	if monthly {
		body, err := monthlyBillBody(eng, out.Months, fr)
		if err != nil {
			return batchItemResult{status: http.StatusInternalServerError, body: batchErrorBody(err.Error())}
		}
		return batchItemResult{status: http.StatusOK, degraded: fr.degraded(), body: body}
	}
	body, err := out.Bill.JSON()
	if err != nil {
		return batchItemResult{status: http.StatusInternalServerError, body: batchErrorBody(err.Error())}
	}
	if fr.degraded() {
		body = markDegraded(body, fr.reason)
	}
	return batchItemResult{status: http.StatusOK, degraded: fr.degraded(), body: body}
}

// renderBatchEnvelope assembles the response by hand so item bodies
// embed verbatim — encoding/json would re-indent the nested documents
// and break per-item byte identity with sequential responses.
func renderBatchEnvelope(results []batchItemResult) []byte {
	var buf bytes.Buffer
	total := 0
	for _, it := range results {
		total += len(it.body)
	}
	buf.Grow(total + 64*len(results) + 64)
	buf.WriteString("{\n  \"count\": ")
	buf.WriteString(strconv.Itoa(len(results)))
	buf.WriteString(",\n  \"items\": [")
	for i, it := range results {
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
