package session

import (
	"bytes"
	"testing"

	"mube/internal/testutil"
)

// FuzzLoadSpec checks the spec reader at its trust boundary (a saved session
// spec is whatever `mube interactive` is pointed at), against one small
// fixed universe: no input panics, and the SaveSpec output of an accepted
// spec loads again and re-saves to the same bytes. The seed corpus is
// testdata/fuzz/FuzzLoadSpec; `make fuzz-smoke` runs the target, and each
// crasher it finds is committed there as a regression input.
func FuzzLoadSpec(f *testing.F) {
	u := testutil.BooksUniverse(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSpec(bytes.NewReader(data), Config{Universe: u})
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := s.SaveSpec(&out); err != nil {
			t.Fatalf("SaveSpec of an accepted spec: %v", err)
		}
		back, err := LoadSpec(bytes.NewReader(out.Bytes()), Config{Universe: u})
		if err != nil {
			t.Fatalf("SaveSpec output does not load back: %v\n%s", err, out.Bytes())
		}
		var again bytes.Buffer
		if err := back.SaveSpec(&again); err != nil {
			t.Fatalf("SaveSpec of the re-loaded spec: %v", err)
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("save-load-save is not a fixed point:\n%s\n%s", out.Bytes(), again.Bytes())
		}
	})
}
