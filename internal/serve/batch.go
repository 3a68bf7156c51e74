package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"himap"
)

// handleBatch answers POST /v1/compile-batch: every item compiled under
// one batch deadline, per-item outcomes index-aligned with the request.
// The envelope answers 200 whenever it decodes; item failures are typed
// per-item errors, exactly the body the item would have answered
// standalone.
//
// All items share one artifact memo, so a batch sweeping one kernel
// across fabrics (or blocks) deduplicates the kernel-level work — IDFG
// construction, sub-mapping enumeration, DFG unrolling — across items
// instead of redoing it per compile. Items run sequentially: intra-item
// parallelism (Options.Workers) already saturates the worker budget,
// and sequential order makes the memo reuse deterministic.
//
// Batches are never forwarded to shard peers — their items generally
// hash to different owners, and the memo sharing that justifies the
// endpoint only exists locally. Item results still populate this
// replica's cache levels.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	breq, err := DecodeBatchRequest(r.Body)
	if err == nil && len(breq.Items) > s.cfg.MaxBatchItems {
		err = fmt.Errorf("%w: batch has %d items, limit %d", ErrBadRequest, len(breq.Items), s.cfg.MaxBatchItems)
	}
	if err != nil {
		s.reject(w, err)
		return
	}
	s.metrics.batches.Add(1)

	// One deadline for the whole batch; items compiled after it expires
	// answer the deadline error individually.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(breq.Options.TimeoutMS))
	defer cancel()

	memo := himap.NewMemo()
	resp := BatchResponse{SchemaVersion: SchemaVersion, Items: make([]BatchItemResult, len(breq.Items))}
	var hits, misses int
	for i := range breq.Items {
		item := &breq.Items[i]
		s.metrics.batchItems.Add(1)
		hreq, err := BuildRequest(item, s.cfg)
		if err != nil {
			s.metrics.badRequests.Add(1)
			status, eb := classify(err)
			resp.Items[i] = BatchItemResult{Status: status, Error: &eb}
			continue
		}
		hreq.Options.Memo = memo
		status, body, cacheStatus := s.respond(ctx, item, hreq, CacheKey(item))
		if cacheStatus == "hit" || cacheStatus == "store" {
			hits++
		} else {
			misses++
		}
		if status == http.StatusOK {
			resp.Items[i] = BatchItemResult{OK: true, Status: status, Result: json.RawMessage(bytes.TrimRight(body, "\n"))}
		} else {
			var ebody ErrorResponse
			if err := json.Unmarshal(body, &ebody); err != nil {
				ebody.Error = ErrorBody{Code: "internal", Message: "batch item error body undecodable"}
			}
			resp.Items[i] = BatchItemResult{Status: status, Error: &ebody.Error}
		}
	}
	out, err := json.Marshal(resp)
	if err != nil {
		writeError(w, err)
		return
	}
	// Aggregate cache accounting travels in a header, never the body —
	// same discipline as X-Himap-Cache on single compiles.
	w.Header().Set("X-Himap-Batch-Cache", fmt.Sprintf("hits=%d misses=%d", hits, misses))
	writeBody(w, http.StatusOK, append(out, '\n'), "")
}
