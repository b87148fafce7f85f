package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded here, in the benchmark's own files, around calls into
// each layer's public functions; nothing inside the program is instrumented.
// They stay in memory and are written out when the traced run ends.

// span is one recorded interval. Parent is the index of the span that caused
// it (-1 for a root); times are nanoseconds since the tracer started.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// series aggregates the spans of one name that are too many to keep: the
// per-edge and per-query ones. Every duration is kept, so percentiles are
// exact; every keepEvery-th span is also kept verbatim.
type series struct {
	tr    *tracer
	name  string
	durNs []int64
	sumNs int64
}

const keepEvery = 1000

type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	all      []*series // in first-use order
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its index, to be passed to end and, as
// parent, to the spans it causes.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Workload: t.workload})
	return len(t.spans) - 1
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	t.spans[id].End = t.now()
	return float64(t.spans[id].End-t.spans[id].Start) / 1e9
}

// series returns the aggregate of the given name. Hot loops fetch it once.
func (t *tracer) series(name string) *series {
	for _, s := range t.all {
		if s.name == name {
			return s
		}
	}
	s := &series{tr: t, name: name}
	t.all = append(t.all, s)
	return s
}

// reserve makes room for n more samples at once: growing by doubling inside
// a hot loop would feed the garbage collector, and its cycles would be
// charged to the loop as tracing overhead.
func (s *series) reserve(n int) {
	s.durNs = append(make([]int64, 0, len(s.durNs)+n), s.durNs...)
}

// add records one short span.
func (s *series) add(parent int, start, end int64) {
	if len(s.durNs)%keepEvery == 0 {
		s.tr.spans = append(s.tr.spans, span{Name: s.name, Start: start, End: end, Parent: parent, Workload: s.tr.workload})
	}
	s.durNs = append(s.durNs, end-start)
	s.sumNs += end - start
}

// scaled returns the samples divided by div (1e3 for microseconds).
func (s *series) scaled(div float64) []float64 { return nsToFloat(s.durNs, div) }

func (s *series) seconds() float64 { return float64(s.sumNs) / 1e9 }

type seriesSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SumS   float64 `json:"sum_s"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// write dumps the spans and the series summaries to
// benchmark/out/trace-<workload>.json.
func (t *tracer) write(out string) error {
	doc := struct {
		Workload string          `json:"workload"`
		Spans    []span          `json:"spans"`
		Series   []seriesSummary `json:"series"`
	}{Workload: t.workload, Spans: t.spans}
	for _, s := range t.all {
		if len(s.durNs) == 0 {
			continue
		}
		us := sortedCopy(s.scaled(1e3))
		doc.Series = append(doc.Series, seriesSummary{
			Name: s.name, Count: len(us), SumS: float64(s.sumNs) / 1e9,
			P50us: percentile(us, 0.5), P99us: percentile(us, 0.99), P999us: percentile(us, 0.999), MaxUs: us[len(us)-1],
		})
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "trace-"+t.workload+".json"), data, 0o644)
}
