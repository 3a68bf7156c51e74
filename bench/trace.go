package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"himap"
)

// span is one recorded interval. Call spans (Parent 0) are recorded by
// the harness around a public-API call; stage spans are the program's
// own diag spans, parented to the call that emitted them. Times are
// microseconds from the recorder's epoch.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent,omitempty"`
	Name     string           `json:"name"`
	StartUS  float64          `json:"start_us"`
	EndUS    float64          `json:"end_us"`
	Attempt  int              `json:"attempt,omitempty"`
	Err      string           `json:"err,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`

	start, end int64 // ns from epoch, for arithmetic
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	s.StartUS, s.EndUS = float64(s.start)/1e3, float64(s.end)/1e3
	r.spans = append(r.spans, s)
	return s.ID
}

// mark returns how many spans exist, so a caller can later read only
// the spans one pass added.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) since(mark int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[mark:]...)
}

// call is the harness span around one public-API call. It implements
// himap.Tracer: every stage span the program emits during the call
// becomes a child, named "<layer>.<stage>". A diag span carries only its
// wall time; Emit runs as the stage returns, so its end is now.
type call struct {
	r     *recorder
	layer string
	name  string
	begin time.Time

	mu       sync.Mutex
	children []span
}

func (r *recorder) call(layer, name string) *call {
	return &call{r: r, layer: layer, name: name, begin: time.Now()}
}

func (c *call) Emit(s himap.TraceSpan) {
	end := time.Since(c.r.epoch).Nanoseconds()
	c.mu.Lock()
	c.children = append(c.children, span{
		Name: c.layer + "." + s.Stage, Attempt: s.Attempt, Err: s.Err, Counters: s.Counters,
		start: end - s.Wall.Nanoseconds(), end: end,
	})
	c.mu.Unlock()
}

// done closes the call span and files it with its children.
func (c *call) done(err error) {
	end := time.Now()
	parent := span{
		Name:  c.layer + ".compile " + c.name,
		start: c.begin.Sub(c.r.epoch).Nanoseconds(), end: end.Sub(c.r.epoch).Nanoseconds(),
	}
	if err != nil {
		parent.Err = err.Error()
	}
	id := c.r.add(parent)
	for _, ch := range c.children {
		ch.Parent = id
		c.r.add(ch)
	}
}

// write dumps the spans as JSON.
func (r *recorder) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	doc := map[string]any{"header": header, "spans": r.spans}
	r.mu.Unlock()
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
