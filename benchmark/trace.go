package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The benchmark's own spans. The traced run wraps each op in a root
// span and then — for the same op, immediately after — replays the
// layer calls that op makes inside the program as child spans: the JSON
// decode of its request, the cache lookup, the prediction arithmetic or
// ranking on a miss, the JSON encode of its response, one request's
// worth of tracing and metric instruments. The children are replayed
// from outside, next to the program, not nested inside it (that needs
// spans in the program itself, a later change); a root's self time is
// what those replays do not account for.

// span is one recorded interval. Spans of one op share a trace number;
// parent is the id of the span that caused it (0 for a root).
type span struct {
	trace, id, parent uint32
	layer, name       string
	start, end        int64 // nanoseconds since the recorder started
}

// spanRecorder keeps spans in memory; writeJSONL writes them out when
// the run ends.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder(capacity int) *spanRecorder {
	return &spanRecorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *spanRecorder) now() int64 { return int64(time.Since(r.t0)) }

// add records one span and returns its id.
func (r *spanRecorder) add(trace, parent uint32, layer, name string, start, end int64) uint32 {
	id := uint32(len(r.spans) + 1)
	r.spans = append(r.spans, span{trace: trace, id: id, parent: parent, layer: layer, name: name, start: start, end: end})
	return id
}

// child runs fn reps times and records one span of the mean duration
// under parent. Calls that take tens of nanoseconds are replayed a few
// times per span so the clock read does not dominate what is recorded.
func (r *spanRecorder) child(trace, parent uint32, layer, name string, reps int, fn func()) {
	start := r.now()
	for i := 0; i < reps; i++ {
		fn()
	}
	r.add(trace, parent, layer, name, start, start+(r.now()-start)/int64(reps))
}

// writeJSONL writes one JSON object per span:
// {trace, span, parent, layer, name, start_ns, end_ns}.
func (r *spanRecorder) writeJSONL(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	for _, s := range r.spans {
		buf = buf[:0]
		buf = append(buf, `{"trace":`...)
		buf = strconv.AppendUint(buf, uint64(s.trace), 10)
		buf = append(buf, `,"span":`...)
		buf = strconv.AppendUint(buf, uint64(s.id), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, uint64(s.parent), 10)
		buf = append(buf, `,"layer":`...)
		buf = strconv.AppendQuote(buf, s.layer)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, s.name)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, "}\n"...)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// spanKey groups spans for the self-time summary.
type spanKey struct{ layer, name string }

// selfTimes returns, per (layer, name), every span's self time: its
// duration minus the part its child spans cover. Replayed children run
// after their parent rather than inside it, so "cover" is the sum of
// their durations, capped at the parent's own.
func (r *spanRecorder) selfTimes() map[spanKey][]int64 {
	covered := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		covered[s.parent] += s.end - s.start
	}
	out := make(map[spanKey][]int64)
	for _, s := range r.spans {
		dur := s.end - s.start
		k := spanKey{s.layer, s.name}
		out[k] = append(out[k], dur-min(covered[s.id], dur))
	}
	return out
}

// durations returns every duration of the spans matching layer and name
// under roots (or anywhere) named rootName; rootName "" matches all.
func (r *spanRecorder) durations(layer, name, rootName string) []int64 {
	rootOf := make(map[uint32]string)
	if rootName != "" {
		for _, s := range r.spans {
			if s.parent == 0 {
				rootOf[s.trace] = s.name
			}
		}
	}
	var out []int64
	for _, s := range r.spans {
		if s.layer == layer && s.name == name && (rootName == "" || rootOf[s.trace] == rootName) {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// summary renders the per-layer self-time table of a traced pass.
func (r *spanRecorder) summary() []string {
	self := r.selfTimes()
	keys := make([]spanKey, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b spanKey) int {
		return cmp.Or(strings.Compare(a.layer, b.layer), strings.Compare(a.name, b.name))
	})
	lines := []string{fmt.Sprintf("  %-12s %-28s %10s %14s", "layer", "span", "count", "self p50 (us)")}
	for _, k := range keys {
		v := self[k]
		lines = append(lines, fmt.Sprintf("  %-12s %-28s %10d %14.3f", k.layer, k.name, len(v), float64(median(v))/1e3))
	}
	return lines
}
