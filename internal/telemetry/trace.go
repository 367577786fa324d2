package telemetry

import (
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Event is one trace record. Seq is a monotonic counter assigned under the
// recorder's emission lock, so the (Seq, bytes) stream is identical across
// runs with the same seed regardless of evaluator worker count. TNano is the
// elapsed virtual time since the recorder's epoch and is present only when an
// injected clock was attached (Stamped).
//
// SID links the event into the span tree: for a span begin/end event it is
// the span's own id (the begin event's sequence number), for any other event
// the id of the innermost open span (0 = outside any span). PSID is the
// parent span's id and is meaningful only on begin events (IsBegin), where 0
// marks a root span.
type Event struct {
	Seq     int64
	Name    string
	TNano   int64
	Stamped bool
	SID     int64
	PSID    int64
	IsBegin bool
	Attrs   []Attr
}

// Sink receives emitted events. Write is always called under the recorder's
// lock, in sequence order; implementations need no additional locking against
// concurrent Write calls from the same recorder.
type Sink interface {
	Write(ev Event)
}

// JSONLSink encodes each event as one JSON object per line:
//
//	{"seq":3,"ev":"solver.iter","sid":2,"iter":1,"best_q":0.75}
//
// Attributes are flattened to top-level keys in emission order, after the
// fixed seq/ev(/t_ns)(/sid)(/psid) prefix — sid appears whenever the event is
// inside (or is) a span, psid only on span begin events. Encoding is
// hand-rolled so the bytes are a pure function of the event: floats use
// strconv 'g' shortest form, and map iteration order never enters the
// picture.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// NewJSONLSink returns a sink writing JSON Lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Write implements Sink.
func (s *JSONLSink) Write(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b := s.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, ev.Seq, 10)
	b = append(b, `,"ev":`...)
	b = appendString(b, ev.Name)
	if ev.Stamped {
		b = append(b, `,"t_ns":`...)
		b = strconv.AppendInt(b, ev.TNano, 10)
	}
	if ev.SID != 0 {
		b = append(b, `,"sid":`...)
		b = strconv.AppendInt(b, ev.SID, 10)
	}
	if ev.IsBegin {
		b = append(b, `,"psid":`...)
		b = strconv.AppendInt(b, ev.PSID, 10)
	}
	for _, a := range ev.Attrs {
		b = append(b, ',')
		b = appendString(b, a.Key)
		b = append(b, ':')
		b = appendValue(b, a.Value)
	}
	b = append(b, '}', '\n')
	s.buf = b
	_, s.err = s.w.Write(b)
}

// Err reports the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(b, x, 10)
	case float64:
		// JSON has no Inf/NaN; the Unscored sentinel (-Inf) and friends are
		// encoded as null so a trace line is always valid JSON.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return append(b, "null"...)
		}
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case string:
		return appendString(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	default:
		return append(b, "null"...)
	}
}

// appendString appends s as a JSON string. strconv.AppendQuote will not do:
// its \x, \a, \v and \U escapes are Go syntax, not JSON.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(b, `\ufffd`...)
			} else {
				b = append(b, s[i:i+size]...)
			}
			i += size
			continue
		}
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20 || c == 0x7f:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
		i++
	}
	return append(b, '"')
}

// MemorySink buffers events in memory, for tests and for the convergence
// experiment, which post-processes solver.iter events into a curve.
type MemorySink struct {
	mu  sync.Mutex
	evs []Event
}

// Write implements Sink. Attrs are aliased, not copied; recorders build a
// fresh attr slice per Emit so this is safe.
func (s *MemorySink) Write(ev Event) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

// Events returns the buffered events in emission order.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.evs))
	copy(out, s.evs)
	return out
}

// TeeSink fans each event out to every sink in order. Write is called under
// the recorder's lock like any other sink, so the components need no extra
// synchronization against each other.
type TeeSink []Sink

// Tee bundles sinks into one; nil members are dropped. It returns nil when
// nothing remains, so a recorder built over Tee() stays metrics-only.
func Tee(sinks ...Sink) Sink {
	var out TeeSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}

// Write implements Sink.
func (t TeeSink) Write(ev Event) {
	for _, s := range t {
		s.Write(ev)
	}
}

// Attr returns the named attribute's value and whether it was present.
func (ev Event) Attr(key string) (any, bool) {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}
