package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval: a call into a layer, or a server-side
// interval joined from a job's timeline document. Times are
// nanoseconds since the tracer started. Spans of one op or request
// share Trace; Parent 0 marks a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid tracer that records nothing, so untraced code paths call it
// unconditionally.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent that is
// recorded after them.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent int64, name, trace string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a span under a fresh id and returns the id.
func (t *tracer) add(parent int64, name, trace string, start, end time.Time) int64 {
	id := t.id()
	t.record(id, parent, name, trace, start, end)
	return id
}

// selfTimes sets each span's self time: its duration minus the part of
// it that its children's intervals cover.
func (t *tracer) selfTimes() {
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write computes self times and writes every span as one JSON document
// under .bench_build/spans/, returning its path.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	t.selfTimes()
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// summary prints count, total and self time per span name, largest
// self time first.
func (t *tracer) summary(w io.Writer) {
	type agg struct {
		name        string
		n           int
		total, self int64
	}
	by := make(map[string]*agg)
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{name: s.Name}
			by[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.Self
	}
	rows := make([]*agg, 0, len(by))
	for _, a := range by {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].self > rows[b].self })
	fmt.Fprintf(w, "%-28s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, a := range rows {
		fmt.Fprintf(w, "%-28s %8d %14.3f %14.3f\n", a.name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
