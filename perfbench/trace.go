package main

import (
	"strings"
	"time"

	"mube/internal/telemetry"
)

// wallClock is the clock the traced run hands telemetry.NewClocked, so span
// events carry wall-clock t_ns and durations.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// opSink buffers the events of the op in flight. The recorder calls Write
// under its own lock, and the benchmark drains the buffer only between ops,
// on the same goroutine.
type opSink struct{ evs []telemetry.Event }

func (s *opSink) Write(ev telemetry.Event) { s.evs = append(s.evs, ev) }

// tracer folds each op's span tree into per-layer totals as soon as the op
// ends, so a long run does not hold its whole trace in memory.
type tracer struct {
	sink *opSink
	rec  *telemetry.Recorder
	// attrSpans are the span names whose outermost occurrences count as
	// attributed op time.
	attrSpans map[string]bool

	cumNS, selfNS map[string]int64 // summed per span name
	spans         map[string]int   // span count per name
	attributedNS  int64
}

func newTracer(attrSpans []string) *tracer {
	t := &tracer{
		sink:      &opSink{},
		attrSpans: make(map[string]bool),
		cumNS:     make(map[string]int64),
		selfNS:    make(map[string]int64),
		spans:     make(map[string]int),
	}
	for _, name := range attrSpans {
		t.attrSpans[name] = true
	}
	t.rec = telemetry.NewClocked(t.sink, wallClock{})
	return t
}

// discard drops buffered events (those of set-up).
func (t *tracer) discard() { t.sink.evs = t.sink.evs[:0] }

// collect folds the buffered events of one op into the totals.
func (t *tracer) collect() {
	tree := telemetry.BuildTree(t.sink.evs)
	t.discard()
	for _, st := range telemetry.Profile(tree) {
		name := leaf(st.Path)
		t.cumNS[name] += st.CumNS
		t.selfNS[name] += st.SelfNS
		t.spans[name] += st.Count
	}
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		if t.attrSpans[n.Name] {
			t.attributedNS += n.Dur()
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range tree.Roots {
		walk(r)
	}
}

// leaf is the last span name of a profile path.
func leaf(path string) string { return path[strings.LastIndex(path, "/")+1:] }
