package main

import (
	"encoding/json"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// enclosing span's ID, 0 at the top.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the run started
	End    float64 `json:"end_s"`
}

// spanLog keeps a traced run's spans in memory until the run writes
// them out. A nil *spanLog records nothing, so untraced runs pay no
// tracing cost.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: time.Since(l.t0).Seconds()})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = time.Since(l.t0).Seconds()
}

// durations returns the host seconds of every span with this name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// json renders the spans for the run's span dump.
func (l *spanLog) json() ([]byte, error) {
	return json.MarshalIndent(l.spans, "", " ")
}
