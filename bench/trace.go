package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer (or reconstructed from the stamps a Future or a RecoveryResult
// carries). Spans of one transaction or one restart share an id; Parent
// names the span of the same id that caused this one.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	nextID int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// group starts a new transaction or restart and returns its id.
func (t *tracer) group() int {
	t.nextID++
	return t.nextID
}

func (t *tracer) add(id int, name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(id int, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(id, name, parent, start, end)
	return end.Sub(start)
}

// laid records a span known only by its duration (a RecoveryResult field),
// placed at cursor, and returns the cursor moved past it.
func (t *tracer) laid(id int, name, parent string, cursor time.Time, d time.Duration) time.Time {
	t.add(id, name, parent, cursor, cursor.Add(d))
	return cursor.Add(d)
}

// selfTimes returns, per span name, the mean over its occurrences of the
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	type key struct {
		id   int
		name string
	}
	children := map[key][]span{}
	for _, s := range t.spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	sum := map[string]int64{}
	n := map[string]int64{}
	for _, s := range t.spans {
		self := s.End - s.Start
		kids := children[key{s.ID, s.Name}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, covered), min(c.End, s.End)
			if hi > lo {
				self -= hi - lo
				covered = hi
			}
		}
		sum[s.Name] += self
		n[s.Name]++
	}
	out := map[string]time.Duration{}
	for name, total := range sum {
		out[name] = time.Duration(total / n[name])
	}
	return out
}

// txnSpans turns the sampled transactions of a phase into spans.
func (t *tracer) txnSpans(r *phaseResult, submitLayer string) {
	at := func(ns int64) time.Time { return r.t0.Add(time.Duration(ns)) }
	for _, s := range r.samples {
		if s.wake == 0 {
			continue // never resolved
		}
		id := t.group()
		t.add(id, "txn", "", at(s.due), at(s.wake))
		t.add(id, "generator.late", "txn", at(s.due), at(s.submitStart))
		if s.execAt != 0 {
			t.add(id, "frontend.queue_exec", "txn", at(s.submitStart), at(s.execAt))
			t.add(id, submitLayer+".submit_call", "frontend.queue_exec", at(s.submitStart), at(min(s.submitEnd, s.execAt)))
			t.add(id, "wal.group_wait", "txn", at(s.execAt), at(s.durableAt))
			t.add(id, "generator.wake", "txn", at(s.durableAt), at(s.wake))
		} else {
			// No execution stamp: a client's future carries none, and a
			// Frontend's has none when the transaction rolled back.
			t.add(id, submitLayer+".round_trip", "txn", at(s.submitStart), at(s.wake))
			t.add(id, submitLayer+".submit_call", submitLayer+".round_trip", at(s.submitStart), at(s.submitEnd))
		}
	}
}

// finish prints the mean self time of every span name and saves the spans
// as JSON under dir.
func (t *tracer) finish(rep *report, dir, workload string) error {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.info("self time %-28s %12v (mean per occurrence)", name, self[name])
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	rep.info("%d spans written to %s", len(t.spans), path)
	return os.WriteFile(path, b, 0o644)
}
