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
// sequential /v1/bill call with the same inputs would have returned:
// the envelope and the bills in it are written in one pass into one
// pooled buffer, each distinct pair's item once, and repeated items copy
// its bytes. Degraded feed resolutions mark only the items they
// affected.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/contract"
	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/wire"
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

// appendErrorBody appends the {"error": msg} body an item that failed
// carries, as json.Marshal renders it.
func appendErrorBody(dst []byte, msg string) []byte {
	dst = append(dst, `{"error":`...)
	dst = wire.AppendString(dst, msg)
	return append(dst, '}')
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
	pair := make([]int, n)      // the distinct pair item i bills, or -1
	failed := make([]string, n) // why item i failed before evaluation
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
		pair[i] = -1
		switch {
		case specErrs[si] != nil:
			failed[i] = specErrs[si].Error()
		case loadErrs[li] != nil:
			failed[i] = loadErrs[li].Error()
		default:
			eng, fr, err := s.engineForSpec(r.Context(), parsed[si], req.Feed, loads[li])
			if err != nil {
				failed[i] = err.Error()
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

	s.noteFeed(w, worst)
	w.Header().Set("Content-Type", "application/json")
	buf := wire.GetBuffer(batchSizeHint(outcomes, pair))
	dst := appendBatch(r.Context(), (*buf)[:0], items, outcomes, frs, pair, failed, monthly)
	_, _ = w.Write(dst)
	*buf = dst
	wire.ReleaseBuffer(buf)
}

// appendBatch appends the batch envelope in one pass. Each distinct
// pair's item is encoded once, when its first item comes up: exactly
// the bytes a sequential /v1/bill response would carry, degraded
// marker included. Every later item of the pair copies those bytes.
func appendBatch(ctx context.Context, dst []byte, items []contract.BatchItem, outcomes []contract.BatchOutcome,
	frs []feedResolution, pair []int, failed []string, monthly bool) []byte {
	dst = append(dst, "{\n  \"count\": "...)
	dst = strconv.AppendInt(dst, int64(len(pair)), 10)
	dst = append(dst, ",\n  \"items\": ["...)
	rendered := make([]struct{ start, end int }, len(items)) // each pair's item in dst, once written
	for i, d := range pair {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch {
		case d < 0:
			dst = appendItemHead(dst, http.StatusBadRequest, false)
			dst = append(appendErrorBody(dst, failed[i]), '}')
		case rendered[d].end > 0:
			dst = append(dst, dst[rendered[d].start:rendered[d].end]...)
		default:
			endEncode := obs.Span(ctx, stageBatchEncode)
			start := len(dst)
			dst = appendPairItem(dst, items[d].Engine, outcomes[d], frs[d], monthly)
			rendered[d].start, rendered[d].end = start, len(dst)
			endEncode()
		}
	}
	return append(dst, "\n  ]\n}\n"...)
}

// appendItemHead opens one envelope item, up to its body.
func appendItemHead(dst []byte, status int, degraded bool) []byte {
	dst = append(dst, "\n    {\"status\": "...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	if degraded {
		dst = append(dst, ", \"degraded\": true"...)
	}
	return append(dst, ", \"body\": "...)
}

// appendPairItem appends the envelope item of one evaluated pair. The
// head is written before the body, for the status the outcome promises;
// in the rare case that encoding then fails, the item is written again
// around the error body.
func appendPairItem(dst []byte, eng *contract.Engine, out contract.BatchOutcome, fr feedResolution, monthly bool) []byte {
	start := len(dst)
	status := http.StatusOK
	if out.Err != nil {
		status, _ = evalError(out.Err)
	}
	dst = appendItemHead(dst, status, status == http.StatusOK && fr.degraded())
	body := len(dst)
	dst, got := appendOutcome(dst, eng, out, fr, monthly)
	if got != status {
		errBody := append([]byte(nil), dst[body:]...)
		dst = append(appendItemHead(dst[:start], got, false), errBody...)
	}
	return append(dst, '}')
}

// batchSizeHint estimates the envelope's bytes, so the buffer
// handleBillBatch borrows seldom has to grow.
func batchSizeHint(outcomes []contract.BatchOutcome, pair []int) int {
	n := 64
	for _, d := range pair {
		n += 192
		if d >= 0 {
			n += outcomeSizeHint(outcomes[d])
		}
	}
	return n
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
