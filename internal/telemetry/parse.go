package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ParseTrace decodes a JSONL trace (as written by JSONLSink) back into
// events, preserving attribute order. It is not an exact inverse of the
// sink: a float64 attr the sink writes without a decimal point or exponent
// (0, 3, -12) comes back as an int64, so readers of numeric attrs must
// accept both; null (the encoding of NaN/±Inf, which JSON cannot carry)
// comes back as a nil Value; and invalid UTF-8 in a string comes back as
// U+FFFD. Re-encoding the events parsed from the sink's output reproduces
// that output, except where a string held invalid UTF-8. Lines are decoded
// token-by-token because a map round-trip would destroy the attribute order
// the trace format guarantees.
func ParseTrace(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var out []Event
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("telemetry: parse trace line %d: %w", len(out)+1, err)
		}
		if d, ok := tok.(json.Delim); !ok || d != '{' {
			return out, fmt.Errorf("telemetry: parse trace line %d: unexpected token %v", len(out)+1, tok)
		}
		ev, err := parseEvent(dec)
		if err != nil {
			return out, fmt.Errorf("telemetry: parse trace line %d: %w", len(out)+1, err)
		}
		out = append(out, ev)
	}
}

// parseEvent consumes one event object's keys (the opening brace is already
// read) in order.
func parseEvent(dec *json.Decoder) (Event, error) {
	var ev Event
	for dec.More() {
		kt, err := dec.Token()
		if err != nil {
			return ev, err
		}
		key, ok := kt.(string)
		if !ok {
			return ev, fmt.Errorf("non-string key %v", kt)
		}
		vt, err := dec.Token()
		if err != nil {
			return ev, err
		}
		if d, ok := vt.(json.Delim); ok {
			return ev, fmt.Errorf("key %q: nested value %v not allowed in a trace line", key, d)
		}
		switch key {
		case "seq":
			if ev.Seq, err = asInt(vt); err != nil {
				return ev, fmt.Errorf("seq: %w", err)
			}
		case "ev":
			s, ok := vt.(string)
			if !ok {
				return ev, fmt.Errorf("ev: not a string: %v", vt)
			}
			ev.Name = s
		case "t_ns":
			if ev.TNano, err = asInt(vt); err != nil {
				return ev, fmt.Errorf("t_ns: %w", err)
			}
			ev.Stamped = true
		case "sid":
			if ev.SID, err = asInt(vt); err != nil {
				return ev, fmt.Errorf("sid: %w", err)
			}
		case "psid":
			if ev.PSID, err = asInt(vt); err != nil {
				return ev, fmt.Errorf("psid: %w", err)
			}
			ev.IsBegin = true
		default:
			a := Attr{Key: key}
			switch v := vt.(type) {
			case json.Number:
				// The sink writes int64s without a decimal point or exponent,
				// so the lexical form distinguishes the two numeric kinds;
				// "-0" can only be a float64 negative zero.
				if strings.ContainsAny(v.String(), ".eE") || v == "-0" {
					if a.Value, err = v.Float64(); err != nil {
						return ev, fmt.Errorf("%s: %w", key, err)
					}
				} else {
					if a.Value, err = v.Int64(); err != nil {
						return ev, fmt.Errorf("%s: %w", key, err)
					}
				}
			case string:
				a.Value = v
			case bool:
				a.Value = v
			case nil:
				a.Value = nil // was NaN/±Inf; re-encodes as null
			default:
				return ev, fmt.Errorf("%s: unsupported value %v", key, vt)
			}
			ev.Attrs = append(ev.Attrs, a)
		}
	}
	if _, err := dec.Token(); err != nil { // closing brace
		return ev, err
	}
	if ev.Seq == 0 || ev.Name == "" {
		return ev, fmt.Errorf("missing seq or ev field")
	}
	return ev, nil
}

func asInt(tok json.Token) (int64, error) {
	n, ok := tok.(json.Number)
	if !ok {
		return 0, fmt.Errorf("not a number: %v", tok)
	}
	return n.Int64()
}
