package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records one span around every call the benchmark makes into a
// layer of the program. A nil *tracer is the untraced run: every method is
// a nil check and nothing else. Spans stay in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one call into a layer. Name is "<layer>.<call>"; spans of one
// snapshot, request or cycle share Op; Parent indexes the enclosing span,
// -1 at the root.
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, op string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// opID formats a span's operation id; it is only called when tracing.
func opID(kind string, n int) string { return fmt.Sprintf("%s/%d", kind, n) }

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanStats sums the closed spans per name (calls, total time) and per
// layer (self time: each span's duration minus the part of it that its
// children cover).
type spanStats struct {
	calls map[string]int
	total map[string]time.Duration
	self  map[string]time.Duration // by layer
}

func (t *tracer) stats() spanStats {
	st := spanStats{calls: map[string]int{}, total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	if t == nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		st.calls[s.Name]++
		st.total[s.Name] += d
		st.self[layerOf(s.Name)] += d - t.covered(s, children[i])
	}
	return st
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func (t *tracer) covered(parent span, kids []int) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s := t.spans[k]
		iv = append(iv, [2]int64{max(s.Start, parent.Start), min(s.End, parent.End)})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, hi int64 = 0, parent.Start
	for _, v := range iv {
		lo := max(v[0], hi)
		if v[1] > lo {
			sum += v[1] - lo
			hi = v[1]
		}
	}
	return time.Duration(sum)
}

// writeFile writes the spans as JSON lines to dir/<name>.spans.jsonl.
func (t *tracer) writeFile(dir, name string) error {
	f, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
