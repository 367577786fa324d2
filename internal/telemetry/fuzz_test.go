package telemetry

import (
	"bytes"
	"testing"
)

// FuzzParseTrace checks the trace parser at its trust boundary (mube-trace
// reads whatever file it is given): no input panics, the sink's encoding of
// every accepted trace parses, and that encoding is a byte fixed point of
// parse-then-encode. The seed corpus is testdata/fuzz/FuzzParseTrace;
// `make fuzz-smoke` runs the target, and each crasher it finds is committed
// there as a regression input.
func FuzzParseTrace(f *testing.F) {
	encode := func(evs []Event) []byte {
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		for _, ev := range evs {
			sink.Write(ev)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		out := encode(evs)
		again, err := ParseTrace(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("ParseTrace(%q) re-encodes as %q, which does not parse: %v", data, out, err)
		}
		if re := encode(again); !bytes.Equal(re, out) {
			t.Fatalf("ParseTrace(%q) re-encodes as %q, then as %q", data, out, re)
		}
	})
}
