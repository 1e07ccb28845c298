package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Spans of one request share Req; Parent names the
// span whose time this one accounts for.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps one goroutine's spans in memory until the run ends. Ids
// carry the recorder's tag in their high bits, so several recorders never
// hand out the same id.
type recorder struct {
	base  time.Time
	tag   uint64
	n     uint64
	spans []span
}

func newRecorder(base time.Time, tag uint64) *recorder {
	return &recorder{base: base, tag: tag}
}

func (r *recorder) id() uint64 {
	r.n++
	return r.tag<<40 | r.n
}

// ns converts a wall-clock reading to nanoseconds since the run's base.
func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.base).Nanoseconds() }

func (r *recorder) add(s span) { r.spans = append(r.spans, s) }

// selfTimes returns every span's self time by id: its duration minus the
// durations of its children. A span's children never overlap one another.
// Most run inside their parent; a replayed child (the same request again
// with an outer layer removed) runs after it and is charged the same way,
// so the parent's self time is what the removed layer added.
func selfTimes(spans []span) map[uint64]int64 {
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// selfOf returns the self times of the spans named name.
func selfOf(spans []span, self map[uint64]int64, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, self[s.ID])
		}
	}
	return out
}

// durOf returns the durations of the spans named name.
func durOf(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeSpans writes spans to path, one JSON object a line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
