package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one operation (one focal,
// one request, one mutate cycle) share OpID; Parent is the index of the span
// that caused this one, -1 for an operation's top-level spans.
type span struct {
	Name    string `json:"name"`
	OpID    int    `json:"op_id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time: the traced runs are closed loops with one caller,
// and the server middleware records through a mutex of its own.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
	opID  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation; following spans carry its identifier.
func (t *tracer) nextOp() {
	if t != nil {
		t.opID++
	}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, OpID: t.opID, Parent: parent, StartNs: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	idx := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].EndNs = int64(time.Since(t.t0))
	return time.Duration(t.spans[idx].EndNs - t.spans[idx].StartNs)
}

// do runs fn inside a span and returns how long it took. A nil tracer only
// times: the untraced runs share code with the traced ones and record
// nothing.
func (t *tracer) do(name string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	t.begin(name)
	fn()
	return t.end()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover (children of one caller run one after another,
// so their durations add).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// selfByName sums self time (ns) and counts spans per span name.
func selfByName(spans []span) (ns map[string]int64, count map[string]int) {
	ns, count = map[string]int64{}, map[string]int{}
	for i, v := range selfTimes(spans) {
		ns[spans[i].Name] += v
		count[spans[i].Name]++
	}
	return ns, count
}

// totalByName sums whole durations (ns) per span name.
func totalByName(spans []span) map[string]int64 {
	total := map[string]int64{}
	for _, s := range spans {
		total[s.Name] += s.EndNs - s.StartNs
	}
	return total
}

// write stores the workload's spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace."+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
