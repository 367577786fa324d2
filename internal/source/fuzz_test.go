package source

import (
	"bytes"
	"encoding/json"
	"testing"

	"mube/internal/schema"
)

// FuzzReadJSON checks the universe reader at its trust boundary (a cached
// universe file is whatever the CLIs are pointed at): no input panics, an
// accepted universe's signature width is one pcsa accepts (so a hostile
// sig_num_maps is refused before anything is sized by it), each decoded
// schema holds exactly the input's attrs, on the universe's vocabulary,
// every normalized characteristic column lies in [0, 1] (so no hostile range
// can make a QEF NaN), and WriteJSON's output of an accepted universe reads
// back and writes out to the same bytes. The seed corpus is testdata/fuzz/FuzzReadJSON; `make fuzz-smoke`
// runs the target, and each crasher it finds is committed there as a
// regression input.
func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if cfg := u.SignatureConfig(); cfg.NumMaps != 0 {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("accepted a universe with signature width %d: %v", cfg.NumMaps, err)
			}
		}
		var in universeJSON
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil || len(in.Sources) != u.Len() {
			t.Fatalf("accepted input decodes to %d sources (%v), universe has %d", len(in.Sources), err, u.Len())
		}
		for i, sj := range in.Sources {
			sch := u.Source(schema.SourceID(i)).Schema
			if sch.Vocab() != u.Vocab() || sch.Len() != len(sj.Attrs) {
				t.Fatalf("source %d: schema %v of %d attributes, input %q", i, sch, sch.Len(), sj.Attrs)
			}
			for a, name := range sj.Attrs {
				if sch.Name(a) != name {
					t.Fatalf("source %d attribute %d: %q, input %q", i, a, sch.Name(a), name)
				}
			}
		}
		for _, name := range u.CharacteristicNames() {
			for id, v := range u.NormalizedCharacteristic(name) {
				if !(v >= 0 && v <= 1) {
					t.Fatalf("source %d: normalized %q = %v, want [0, 1]", id, name, v)
				}
			}
		}
		var out bytes.Buffer
		if err := u.WriteJSON(&out); err != nil {
			t.Fatalf("WriteJSON of an accepted universe: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("WriteJSON output does not read back: %v\n%s", err, out.Bytes())
		}
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil {
			t.Fatalf("WriteJSON of the re-read universe: %v", err)
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("write-read-write is not a fixed point:\n%s\n%s", out.Bytes(), again.Bytes())
		}
	})
}
