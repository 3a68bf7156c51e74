package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
)

// handleBatch answers POST /v1/compile-batch: every item compiled under
// one batch deadline, per-item outcomes index-aligned with the request.
// The envelope answers 200 whenever it decodes; item failures are typed
// per-item errors, exactly the body the item would have answered
// standalone.
//
// Items compile on the process-wide artifact memo, as standalone
// compiles do, so a batch sweeping one kernel across fabrics (or blocks)
// reuses the kernel-level work — IDFG construction, sub-mapping
// enumeration, DFG unrolling — across items and across requests. Items
// run sequentially: intra-item parallelism (Options.Workers) already
// saturates the worker budget.
// Item results populate the cache levels as standalone compiles do.
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

	// Each item goes into the envelope as its standalone answer, unscanned:
	// the success body or the error body's "error" member, minus newline.
	out := fmt.Appendf(nil, `{"schema_version":%d,"items":[`, SchemaVersion)
	errHead := fmt.Appendf(nil, `{"schema_version":%d,"error":`, SchemaVersion)
	var hits, misses int
	for i := range breq.Items {
		item := &breq.Items[i]
		s.metrics.batchItems.Add(1)
		var status int
		var body []byte
		if hreq, err := BuildRequest(item, s.cfg); err != nil {
			s.metrics.badRequests.Add(1)
			status, body = renderError(err)
		} else {
			var cacheStatus string
			status, body, cacheStatus = s.respond(ctx, item, hreq, CacheKey(item))
			if cacheStatus == "hit" || cacheStatus == "store" {
				hits++
			} else {
				misses++
			}
		}
		if i > 0 {
			out = append(out, ',')
		}
		body = bytes.TrimSuffix(body, []byte("\n"))
		if status == http.StatusOK {
			out = fmt.Appendf(out, `{"ok":true,"status":%d,"result":%s}`, status, body)
		} else {
			body = bytes.TrimSuffix(bytes.TrimPrefix(body, errHead), []byte("}"))
			out = fmt.Appendf(out, `{"ok":false,"status":%d,"error":%s}`, status, body)
		}
	}
	out = append(out, "]}\n"...)
	// Aggregate cache accounting travels in a header, never the body —
	// same discipline as X-Himap-Cache on single compiles.
	w.Header().Set("X-Himap-Batch-Cache", fmt.Sprintf("hits=%d misses=%d", hits, misses))
	writeBody(w, http.StatusOK, out, "")
}
