package source_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"mube/internal/pcsa"
	"mube/internal/source"
	"mube/internal/synth"
)

// TestWriteJSONBytesPinned pins WriteJSON's bytes for two small generated
// universes, one per generator mode, the BAMM one with attribute
// signatures: the SHA-256 of each was computed when schemas were []string
// and characteristics a map, so any change to the wire format, to the order
// it writes names or characteristic keys in, or to generation fails here.
// The universe ReadJSON decodes from those bytes writes them again.
func TestWriteJSONBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		domains  int
		attrSigs bool
		sha      string
	}{
		{0, true, "6c56ab4a253671a96e37525abfc40faa98da3158bdd2a5498f3cebfbc4171ba8"},
		{4, false, "330cec494d301cc5c7093c3e85b85920bd65f20e555488a14e701e2ec86510cf"},
	} {
		cfg := synth.Scaled(0.001)
		cfg.NumSources = 60
		cfg.Seed = 7
		cfg.Sig = pcsa.Config{NumMaps: 16}
		cfg.Domains = tc.domains
		cfg.AttrSignatures = tc.attrSigs
		cfg.MinHashK = 8
		res, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.Universe.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != tc.sha {
			t.Errorf("domains=%d: WriteJSON SHA-256 %s, want %s", tc.domains, got, tc.sha)
		}
		back, err := source.ReadJSON(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), b.Bytes()) {
			t.Errorf("domains=%d: the universe ReadJSON decodes writes other bytes", tc.domains)
		}
	}
}
