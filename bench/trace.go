package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans are recorded only here in
// bench/, around the adapter calls; spans inside the program are a later
// issue.
type span struct {
	Name    string `json:"name"`
	Session int    `json:"session"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a session root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and reads no clock, so untraced code shares the traced path.
// It is used from one goroutine at a time.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(name string, session, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Session: session, ID: id, Parent: parent, StartNS: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNS = int64(time.Since(t.epoch))
	}
}

// duration is the wall time of span id.
func (t *tracer) duration(id int) time.Duration {
	return time.Duration(t.spans[id].EndNS - t.spans[id].StartNS)
}

// selfTimes returns, per span, its duration minus its children's, in ms
// and grouped by name, for one session.
func (t *tracer) selfTimes(session int) map[string]sample {
	self := make([]int64, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	out := map[string]sample{}
	for _, s := range t.spans {
		if s.Session == session {
			out[s.Name] = append(out[s.Name], float64(self[s.ID])/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
