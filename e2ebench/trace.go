package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run keeps spans in memory and writes them out when the run
// ends. Spans are taken around the benchmark's own calls into each layer (and
// around the device calls the timing filesystem sees); none come from inside
// the library. Spans of one epoch or operation share an ID.

// span is one timed interval at a layer boundary. Parent indexes the
// tracer's span list; -1 marks a root.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans relative to its creation time. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its index (-1 on a nil tracer or when the
// interval was never stamped).
func (t *tracer) add(name string, id uint64, parent int, start, end time.Time) int {
	if t == nil || start.IsZero() || end.IsZero() {
		return -1
	}
	if end.Before(start) {
		end = start
	}
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return len(t.spans) - 1
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTimes() []int64 {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = (s.End - s.Start) - covered(s, t.spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to p.
func covered(p span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, p.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]int64 {
	out := make(map[string]int64)
	for i, st := range t.selfTimes() {
		out[t.spans[i].Name] += st
	}
	return out
}

// write stores the spans as JSON under the benchmark directory and returns
// the file's path.
func (t *tracer) write(name string) (string, error) {
	dir := filepath.Join(benchDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}
