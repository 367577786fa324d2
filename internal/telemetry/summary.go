package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// KV is one key=value pair in a run header.
type KV struct {
	Key   string
	Value string
}

// KVInt is shorthand for an integer-valued KV.
func KVInt(key string, v int) KV { return KV{Key: key, Value: strconv.Itoa(v)} }

// KVStr is shorthand for a string-valued KV.
func KVStr(key, value string) KV { return KV{Key: key, Value: value} }

// Header renders the shared run header every binary prints before a solve or
// bench run, e.g.
//
//	mube-bench: scale=quick seed=1 eval-workers=4 faults=off
//
// Keys are rendered in argument order so each binary controls its layout but
// the format (bin: k=v k=v ...) is identical everywhere.
func Header(bin string, kvs ...KV) string {
	var b strings.Builder
	b.WriteString(bin)
	b.WriteByte(':')
	for _, kv := range kvs {
		b.WriteByte(' ')
		b.WriteString(kv.Key)
		b.WriteByte('=')
		b.WriteString(kv.Value)
	}
	return b.String()
}

// WriteSummary renders a human-readable metrics summary: counters, gauges,
// then histograms, each section sorted by name. This is what
// `mube solve -metrics` prints after the solution.
func WriteSummary(w io.Writer, snap Snapshot) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(snap.Counters) > 0 {
		fmt.Fprintln(tw, "counter\tvalue")
		for _, k := range sortedKeys(snap.Counters) {
			fmt.Fprintf(tw, "%s\t%d\n", k, snap.Counters[k])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(tw, "gauge\tvalue")
		for _, k := range sortedKeys(snap.Gauges) {
			fmt.Fprintf(tw, "%s\t%s\n", k, strconv.FormatFloat(snap.Gauges[k], 'g', 6, 64))
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(tw, "histogram\tcount\tmean\tmin\tmax")
		for _, k := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[k]
			fmt.Fprintf(tw, "%s\t%d\t%.2f\t%g\t%g\n", k, h.Count, h.Mean(), h.Min, h.Max)
		}
	}
	return tw.Flush()
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
