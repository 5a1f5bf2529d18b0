package serve

// POST /v1/optimize: the demand-charge optimization endpoint. The
// request carries a contract spec, a load profile, and a flexibility
// envelope; the response is the optimize.Result — optimized bill,
// per-component savings, binding constraints, and search statistics.
// The endpoint shares the bill path's whole service envelope: the
// admission gate (429 when the queue is full, 504 when the deadline
// expires while queued), the engine LRU, and the degraded-feed
// semantics — a dead price feed swaps dynamic tariffs for the declared
// fallback rate and marks the response "degraded": true, exactly as
// /v1/bill does. The optimizer's per-stage spans (optimize_search,
// optimize_evaluate) ride the request context into the server's span
// registry and surface as scserved_stage_seconds.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/internal/optimize"
)

// maxOptimizeCandidates bounds the search length one request may ask
// for: the search is CPU-bound at roughly a millisecond per candidate
// on a year-long load, so the cap keeps a single request from pinning
// an evaluation slot for minutes.
const maxOptimizeCandidates = 5000

// SearchSpec tunes the optimizer's annealing search over the wire.
type SearchSpec struct {
	// Seed seeds the deterministic search; same seed, same request,
	// same response bytes. Zero selects seed 1.
	Seed int64 `json:"seed,omitempty"`
	// Candidates is the number of perturbations to attempt (default
	// 2000, capped server-side).
	Candidates int `json:"candidates,omitempty"`
}

// OptimizeRequest is the POST /v1/optimize body.
type OptimizeRequest struct {
	Contract    json.RawMessage      `json:"contract"`
	Load        LoadSpec             `json:"load"`
	Input       *InputSpec           `json:"input,omitempty"`
	Feed        *FeedSpec            `json:"feed,omitempty"`
	Flexibility optimize.Flexibility `json:"flexibility"`
	Search      *SearchSpec          `json:"search,omitempty"`
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request, body []byte) {
	var req OptimizeRequest
	if !parseBody(w, body, &req) {
		return
	}
	opts := optimize.Options{}
	if req.Search != nil {
		opts.Seed = req.Search.Seed
		opts.Candidates = req.Search.Candidates
	}
	if opts.Candidates > maxOptimizeCandidates {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("search.candidates %d exceeds the limit of %d", opts.Candidates, maxOptimizeCandidates))
		return
	}
	load, err := resolveLoad(req.Load)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	eng, feedRes, err := s.engineFor(r.Context(), req.Contract, req.Feed, load)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.noteFeed(w, feedRes)

	if hook := s.billHook; hook != nil {
		hook(r.Context())
	}

	res, err := optimize.Optimize(r.Context(), eng, load, resolveInput(req.Input), req.Flexibility, opts)
	if err != nil {
		writeEvalError(w, err)
		return
	}

	endEncode := obs.Span(r.Context(), stageEncode)
	defer endEncode()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if feedRes.degraded() {
		data = appendDegraded(data, feedRes.reason)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
	_, _ = w.Write([]byte("\n"))
}
