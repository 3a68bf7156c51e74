package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"himap"
	"himap/internal/diag"
)

// wantsStream reports whether the request negotiated the SSE stage-event
// stream (Accept: text/event-stream).
func wantsStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// sseWriter renders server-sent events and flushes after each one, so a
// client watching a long compile sees stages as the tracer emits them.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// event writes one SSE frame: "event: <name>\ndata: <json>\n\n". data
// must be a single-line JSON document (json.Marshal output never
// contains raw newlines).
func (s *sseWriter) event(name string, data []byte) {
	fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data)
	if s.f != nil {
		s.f.Flush()
	}
}

// streamCompile answers one /v1/compile request as an SSE stream: zero
// or more "stage" events in tracer emission order, then exactly one
// terminal event — "result" with the compile response object, or
// "error" with the error body the request would have answered plainly.
//
// Streams resolve before any compile work, so cache hits (memory or
// disk) answer with a lone result event. A streamed compile skips
// singleflight coalescing — its stage events belong to this request's
// own execution, not some concurrent leader's — but its success still
// populates both cache levels for everyone else.
func (s *Server) streamCompile(w http.ResponseWriter, r *http.Request, wire *CompileRequestWire, hreq himap.Request, key string) {
	flusher, _ := w.(http.Flusher)
	sse := &sseWriter{w: w, f: flusher}
	started := false
	start := func(cacheStatus string) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("X-Himap-Cache", cacheStatus)
		w.WriteHeader(http.StatusOK)
		started = true
	}
	s.metrics.streams.Add(1)

	if body, status, ok := s.cacheGet(key); ok {
		s.metrics.cacheHits.Add(1)
		start(status)
		sse.event(StreamEventResult, bytes.TrimRight(body, "\n"))
		return
	}
	s.metrics.cacheMisses.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(wire.Options.TimeoutMS))
	defer cancel()

	// Fan each tracer span onto the wire as it happens. SerialTracer
	// serializes concurrent emissions (speculative attempts emit from
	// worker goroutines) so event frames never interleave.
	streamTracer := diag.SerialTracer(func(span diag.Span) {
		ev := StageEventWire{
			Stage:    span.Stage,
			Attempt:  span.Attempt,
			Wave:     span.Wave,
			WallUS:   span.Wall.Microseconds(),
			Err:      span.Err,
			Counters: span.Counters,
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		sse.event(StreamEventStage, data)
	})
	// The stream opens only once a compile slot is held: an admission
	// rejection has streamed nothing yet and answers as a plain HTTP
	// error, so clients and proxies see the real status code.
	status, body := s.execute(ctx, hreq, streamTracer, func() { start("miss") })
	switch {
	case !started:
		writeBody(w, status, body, "")
	case status == http.StatusOK:
		s.cachePut(key, body)
		sse.event(StreamEventResult, bytes.TrimRight(body, "\n"))
	default:
		sse.event(StreamEventError, bytes.TrimRight(body, "\n"))
	}
}
