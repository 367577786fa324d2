package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// SpanNode is one reconstructed span in a trace's tree. Start/Finish are the
// begin/end t_ns stamps (0 and Stamped=false on unclocked traces); Attrs are
// the span's effective attributes — the parent's inherited attrs followed by
// the span's own begin attrs, so a child span carries the context (solver,
// epoch, …) of every enclosing phase without the hot path re-emitting it.
type SpanNode struct {
	ID       int64
	ParentID int64
	Name     string
	Start    int64
	Finish   int64
	Stamped  bool
	Open     bool // no end event seen (crashed / truncated trace)
	Attrs    []Attr
	Children []*SpanNode
	Events   []Event // non-span events emitted directly inside this span
	EndAttrs []Attr  // attrs from the end event (dur_ns excluded)
}

// Dur returns the span's duration; 0 when the trace is unclocked or the span
// never ended.
func (n *SpanNode) Dur() int64 {
	if !n.Stamped || n.Open {
		return 0
	}
	return n.Finish - n.Start
}

// SelfDur returns the span's duration minus its children's durations — the
// time attributable to the phase itself.
func (n *SpanNode) SelfDur() int64 {
	d := n.Dur()
	for _, c := range n.Children {
		d -= c.Dur()
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Attr returns the effective (inherited) attribute value for key.
func (n *SpanNode) Attr(key string) (any, bool) {
	for i := len(n.Attrs) - 1; i >= 0; i-- {
		if n.Attrs[i].Key == key {
			return n.Attrs[i].Value, true
		}
	}
	return nil, false
}

// Tree is the span forest of one trace plus the events outside any span.
type Tree struct {
	Roots []*SpanNode
	Loose []Event
	// Spans indexes every node by span id.
	Spans map[int64]*SpanNode
}

// BuildTree folds an event stream (in sequence order, as ParseTrace or a
// MemorySink returns it) into its span forest. The builder is total: end
// events without a begin are ignored, spans without an end stay Open, and
// events carrying an unknown sid degrade to Loose. Output is a pure function
// of the input stream.
func BuildTree(evs []Event) *Tree {
	t := &Tree{Spans: make(map[int64]*SpanNode)}
	for _, ev := range evs {
		switch {
		case ev.IsBegin:
			n := &SpanNode{
				ID:       ev.SID,
				ParentID: ev.PSID,
				Name:     strings.TrimSuffix(ev.Name, ".begin"),
				Start:    ev.TNano,
				Stamped:  ev.Stamped,
				Open:     true,
			}
			if p := t.Spans[ev.PSID]; p != nil {
				n.Attrs = append(append([]Attr(nil), p.Attrs...), ev.Attrs...)
				p.Children = append(p.Children, n)
			} else {
				n.Attrs = append([]Attr(nil), ev.Attrs...)
				t.Roots = append(t.Roots, n)
			}
			t.Spans[ev.SID] = n
		case strings.HasSuffix(ev.Name, ".end") && t.Spans[ev.SID] != nil && t.Spans[ev.SID].Open &&
			strings.TrimSuffix(ev.Name, ".end") == t.Spans[ev.SID].Name:
			n := t.Spans[ev.SID]
			n.Open = false
			n.Finish = ev.TNano
			for _, a := range ev.Attrs {
				if a.Key != "dur_ns" {
					n.EndAttrs = append(n.EndAttrs, a)
				}
			}
		default:
			if n := t.Spans[ev.SID]; n != nil {
				n.Events = append(n.Events, ev)
			} else {
				t.Loose = append(t.Loose, ev)
			}
		}
	}
	return t
}

// PhaseStat is the aggregate of every span sharing one tree path
// (e.g. "watch.tick/watch.resolve/solver.run").
type PhaseStat struct {
	// Path is the span names from root to this phase, joined with "/".
	Path string
	// Depth is the number of ancestors (0 for a root phase).
	Depth int
	// Count is the number of spans folded into this phase.
	Count int
	// CumNS and SelfNS are summed cumulative and self time.
	CumNS, SelfNS int64
	// Events counts the non-span events attributed directly to the phase.
	Events int
	// QFirst/QLast track Q progress within the phase: the first and last
	// best_q (or q_after) seen on the phase's direct events, in trace order.
	QFirst, QLast float64
	HasQ          bool
}

// phaseNode aggregates every span sharing one tree path.
type phaseNode struct {
	stat     PhaseStat
	children map[string]*phaseNode
	names    []string // first-seen child order (pre-sort)
}

func (p *phaseNode) child(name string) *phaseNode {
	if p.children == nil {
		p.children = make(map[string]*phaseNode)
	}
	c := p.children[name]
	if c == nil {
		c = &phaseNode{}
		p.children[name] = c
		p.names = append(p.names, name)
	}
	return c
}

// Profile folds a span tree into one PhaseStat per distinct tree path,
// depth-first: a parent precedes its children and sibling phases sort by
// descending cumulative time, ties by name — a deterministic reduction of a
// deterministic trace.
func Profile(t *Tree) []PhaseStat {
	root := &phaseNode{}
	var fold func(n *SpanNode, at *phaseNode, path string, depth int)
	fold = func(n *SpanNode, at *phaseNode, path string, depth int) {
		if path == "" {
			path = n.Name
		} else {
			path += "/" + n.Name
		}
		pn := at.child(n.Name)
		st := &pn.stat
		st.Path, st.Depth = path, depth
		st.Count++
		st.CumNS += n.Dur()
		st.SelfNS += n.SelfDur()
		st.Events += len(n.Events)
		for _, ev := range n.Events {
			for _, key := range [2]string{"best_q", "q_after"} {
				v, _ := ev.Attr(key)
				var f float64
				switch x := v.(type) {
				case float64:
					f = x
				case int64: // an integral Q parsed back from a JSONL trace
					f = float64(x)
				default:
					continue
				}
				if !st.HasQ {
					st.QFirst, st.HasQ = f, true
				}
				st.QLast = f
			}
		}
		for _, c := range n.Children {
			fold(c, pn, path, depth+1)
		}
	}
	for _, r := range t.Roots {
		fold(r, root, "", 0)
	}
	var stats []PhaseStat
	var emit func(p *phaseNode)
	emit = func(p *phaseNode) {
		names := append([]string(nil), p.names...)
		sort.SliceStable(names, func(i, j int) bool {
			ci, cj := p.children[names[i]], p.children[names[j]]
			if ci.stat.CumNS != cj.stat.CumNS {
				return ci.stat.CumNS > cj.stat.CumNS
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			c := p.children[name]
			stats = append(stats, c.stat)
			emit(c)
		}
	}
	emit(root)
	return stats
}

// leafName returns the last segment of a phase path.
func leafName(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// fmtDur renders a nanosecond count via time.Duration — a pure function of
// the integer, so rendered profiles are as deterministic as the trace.
func fmtDur(ns int64) string {
	return time.Duration(ns).String()
}

// WriteFlame renders the aggregated profile as an indented text flame: one
// line per phase path with cumulative time, self time, span count, event
// count, and Q progress, plus a bar scaled to the phase's share of total
// root time (by count when the trace is unclocked).
func WriteFlame(w io.Writer, t *Tree) error {
	stats := Profile(t)
	var totalCum int64
	totalCount := 0
	for _, st := range stats {
		if st.Depth == 0 {
			totalCum += st.CumNS
			totalCount += st.Count
		}
	}
	if _, err := fmt.Fprintf(w, "%-44s %12s %12s %7s %7s  %s\n",
		"phase", "cum", "self", "spans", "events", "share"); err != nil {
		return err
	}
	for _, st := range stats {
		frac := 0.0
		if totalCum > 0 {
			frac = float64(st.CumNS) / float64(totalCum)
		} else if totalCount > 0 {
			frac = float64(st.Count) / float64(totalCount)
		}
		bar := strings.Repeat("#", int(frac*30+0.5))
		name := strings.Repeat("  ", st.Depth) + leafName(st.Path)
		line := fmt.Sprintf("%-44s %12s %12s %7d %7d  %5.1f%% %s",
			name, fmtDur(st.CumNS), fmtDur(st.SelfNS), st.Count, st.Events, frac*100, bar)
		if st.HasQ {
			line += fmt.Sprintf("  q %.6f -> %.6f", st.QFirst, st.QLast)
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteWaterfall renders every span chronologically with begin offset,
// duration, and inherited-attribute context — the per-occurrence view, where
// WriteFlame is the aggregate.
func WriteWaterfall(w io.Writer, t *Tree) error {
	var epoch int64
	if len(t.Roots) > 0 {
		epoch = t.Roots[0].Start
	}
	var walk func(n *SpanNode, depth int) error
	walk = func(n *SpanNode, depth int) error {
		dur := "open"
		if !n.Open {
			dur = fmtDur(n.Dur())
		}
		line := fmt.Sprintf("%12s %12s  %s%s", "+"+fmtDur(n.Start-epoch), dur,
			strings.Repeat("| ", depth), n.Name)
		var parts []string
		for _, a := range n.Attrs {
			parts = append(parts, fmt.Sprintf("%s=%v", a.Key, a.Value))
		}
		for _, a := range n.EndAttrs {
			parts = append(parts, fmt.Sprintf("%s=%v", a.Key, a.Value))
		}
		if len(parts) > 0 {
			line += " [" + strings.Join(parts, " ") + "]"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	return nil
}
