package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a workload, set-up, pass,
// experiment, scenario, resume, window or run stream. Parent 0 is the
// root. Times are seconds since the tracer started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory and writes them when the run ends. A
// disabled tracer records nothing; its start returns 0 and end ignores 0.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
}

// selfTimes sums, per span kind (the name up to its first ':'), the time
// each span does not spend inside one of its children. Children may
// overlap (concurrent windows and run streams), so the covered part is the
// union of their intervals.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]float64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, hi)
		}
		kind, _, _ := strings.Cut(s.Name, ":")
		out[kind] += (s.End - s.Start) - covered
	}
	return out
}

// write saves the span file: the spans, each kind's self time, and the
// per-layer self times of one timed pass (layers, may be nil).
func (t *tracer) write(path string, o options, layers map[string]float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Spans    []span             `json:"spans"`
		SelfS    map[string]float64 `json:"self_s"`
		Layers   map[string]float64 `json:"layer_self_s,omitempty"`
	}{o.workload, o.seed, t.spans, selfTimes(t.spans), layers}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
