package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one operation share req; parent indexes the caller's span in
// the same tracer (-1 at the root).
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	req        uint64
}

// maxSpansPerClient caps a tracer's memory; operations beyond it run
// untraced. The sampling interval of each workload keeps a run below it.
const maxSpansPerClient = 1 << 18

// tracer records one client's spans in memory. A nil *tracer records
// nothing, so the operation code is identical with tracing on and off.
type tracer struct {
	epoch  time.Time
	client uint64
	nreq   uint64
	spans  []span
}

func newTracer(epoch time.Time, client int) *tracer {
	return &tracer{epoch: epoch, client: uint64(client), spans: make([]span, 0, 1<<12)}
}

// root opens the root span of a new operation.
func (t *tracer) root(name string) int {
	if t == nil || len(t.spans) >= maxSpansPerClient {
		return -1
	}
	t.nreq++
	return t.open(name, -1, t.client<<40|t.nreq)
}

// child opens a span inside parent. A child of an unrecorded parent is
// not recorded either.
func (t *tracer) child(parent int, name string) int {
	if t == nil || parent < 0 {
		return -1
	}
	return t.open(name, parent, t.spans[parent].req)
}

func (t *tracer) open(name string, parent int, req uint64) int {
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: int32(parent), req: req})
	return len(t.spans) - 1
}

// end closes a span opened by root or child.
func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// spanStats summarizes every span of one name: durations and self times
// (the duration minus the part of it the span's children cover).
type spanStats struct {
	dur, self []int64 // sorted, ns
}

// analyze derives per-name duration and self-time distributions.
func analyze(tracers []*tracer) map[string]*spanStats {
	out := map[string]*spanStats{}
	for _, t := range tracers {
		covered := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				covered[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			st := out[s.name]
			if st == nil {
				st = &spanStats{}
				out[s.name] = st
			}
			d := s.end - s.start
			st.dur = append(st.dur, d)
			self := d - covered[i]
			if self < 0 {
				self = 0
			}
			st.self = append(st.self, self)
		}
	}
	for _, st := range out {
		sortInt64(st.dur)
		sortInt64(st.self)
	}
	return out
}

// p50 returns the median duration of a span name in ns (0 if none).
func spanP50(st map[string]*spanStats, name string) float64 {
	if s := st[name]; s != nil {
		return quantile(s.dur, 0.5)
	}
	return 0
}

// writeTrace writes every recorded span as CSV (name, start_ns, end_ns,
// parent, req) and returns the file's path.
func writeTrace(dir, workload string, tracers []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "client,name,start_ns,end_ns,parent,req")
	for ci, t := range tracers {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", ci, s.name, s.start, s.end, s.parent, s.req)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTable renders the median self time of every span name, for the
// detail line.
func selfTable(st map[string]*spanStats) map[string]float64 {
	out := make(map[string]float64, len(st))
	for n, s := range st {
		out[n] = quantile(s.self, 0.5) / 1e3
	}
	return out
}
