package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// spanRingSize bounds the /spans buffer.
const spanRingSize = 256

// SpanInfo is one completed span as the /spans endpoint reports it.
type SpanInfo struct {
	ID       int64      `json:"sid"`
	ParentID int64      `json:"psid"`
	Name     string     `json:"name"`
	StartNS  int64      `json:"start_ns"`
	DurNS    int64      `json:"dur_ns"`
	Stamped  bool       `json:"stamped"`
	Attrs    []SpanAttr `json:"attrs,omitempty"`
}

// SpanAttr is an attribute pair in /spans JSON. NaN/±Inf values are nulled
// (JSON cannot carry them), matching the trace encoding.
type SpanAttr struct {
	K string `json:"k"`
	V any    `json:"v"`
}

// SpanRing is a Sink that pairs span begin/end events into completed spans
// and keeps the most recent ones in a fixed ring for live inspection. It is
// the /spans backing store: Tee it with the trace file sink. Unlike the
// deterministic trace path it has its own lock, because HTTP readers call
// Spans concurrently with the recorder's writes.
type SpanRing struct {
	mu   sync.Mutex
	open map[int64]*SpanInfo
	buf  []SpanInfo
	next int
	full bool
}

// NewSpanRing returns a ring holding the last 256 completed spans.
func NewSpanRing() *SpanRing {
	return &SpanRing{
		open: make(map[int64]*SpanInfo),
		buf:  make([]SpanInfo, spanRingSize),
	}
}

// Write implements Sink: begin events open a pending span, the matching end
// completes it into the ring. Non-span events pass through untouched.
func (r *SpanRing) Write(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case ev.IsBegin:
		r.open[ev.SID] = &SpanInfo{
			ID:       ev.SID,
			ParentID: ev.PSID,
			Name:     strings.TrimSuffix(ev.Name, ".begin"),
			StartNS:  ev.TNano,
			Stamped:  ev.Stamped,
			Attrs:    ringAttrs(nil, ev.Attrs),
		}
	case strings.HasSuffix(ev.Name, ".end"):
		si := r.open[ev.SID]
		if si == nil || si.Name != strings.TrimSuffix(ev.Name, ".end") {
			return
		}
		delete(r.open, ev.SID)
		if si.Stamped {
			si.DurNS = ev.TNano - si.StartNS
		}
		for _, a := range ev.Attrs {
			if a.Key != "dur_ns" {
				si.Attrs = ringAttrs(si.Attrs, []Attr{a})
			}
		}
		r.buf[r.next] = *si
		r.next++
		if r.next == len(r.buf) {
			r.next, r.full = 0, true
		}
	}
}

func ringAttrs(dst []SpanAttr, attrs []Attr) []SpanAttr {
	for _, a := range attrs {
		v := a.Value
		if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
			v = nil
		}
		dst = append(dst, SpanAttr{K: a.Key, V: v})
	}
	return dst
}

// Spans returns the completed spans currently held, oldest first.
func (r *SpanRing) Spans() []SpanInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]SpanInfo(nil), r.buf[:r.next]...)
	}
	out := make([]SpanInfo, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// promName sanitizes a metric name for the Prometheus exposition format and
// applies the mube_ namespace: dots and other non-identifier characters
// become underscores ("eval.memo_hits" -> "mube_eval_memo_hits").
func promName(name string) string {
	var b strings.Builder
	b.WriteString("mube_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative le-bucketed series with _sum and _count. Names
// sort, so the output is a deterministic function of the snapshot.
func WritePrometheus(w io.Writer, snap Snapshot) error {
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, snap.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", p, p, promFloat(snap.Gauges[name])); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		p := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", p); err != nil {
			return err
		}
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", p, promFloat(bound), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			p, h.Count, p, promFloat(h.Sum), p, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// Server is a live observability endpoint over one recorder: /metrics
// (Prometheus text exposition of the recorder's counters, gauges, and
// histograms), /spans (the ring's recently completed spans as JSON, oldest
// first), and /debug/pprof. It reads only snapshots and never feeds back
// into a solve, so it is safe to leave attached to a deterministic run; the
// deterministic core itself never imports net/http (mube-vet enforces the
// boundary, with this package as the sanctioned exception).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (host:port; :0 picks a free port) and serves rec's
// metrics and ring's spans until Close. rec and ring may each be nil, which
// serves empty metrics and spans rather than erroring — callers wire flags
// through unconditionally.
func Serve(addr string, rec *Recorder, ring *SpanRing) (*Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, rec.Snapshot())
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		spans := []SpanInfo{}
		if ring != nil {
			spans = ring.Spans()
		}
		_ = json.NewEncoder(w).Encode(spans)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: serve %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	//mube:vet-ignore leakjoin — the serve goroutine exits when Close shuts the server down
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with :0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the port.
func (s *Server) Close() error { return s.srv.Close() }
