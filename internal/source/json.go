package source

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"mube/internal/minhash"
	"mube/internal/pcsa"
	"mube/internal/schema"
)

// sourceJSON is the wire form of a Source. Signatures are base64-encoded
// binary; uncooperative sources omit cardinality and signature. The
// characteristics travel as an object, whose keys encoding/json writes in
// sorted order.
type sourceJSON struct {
	Name            string             `json:"name"`
	Attrs           []string           `json:"attrs"`
	Cardinality     *int64             `json:"cardinality,omitempty"`
	Signature       string             `json:"signature,omitempty"`
	AttrSignatures  []string           `json:"attr_signatures,omitempty"`
	Characteristics map[string]float64 `json:"characteristics,omitempty"`
}

// universeJSON is the wire form of a Universe.
type universeJSON struct {
	SigNumMaps int          `json:"sig_num_maps"`
	SigSeed    uint64       `json:"sig_seed"`
	Sources    []sourceJSON `json:"sources"`
}

// WriteJSON serializes the universe (source descriptions, synopses, and
// characteristics) so that a discovered universe can be cached between µBE
// sessions.
func (u *Universe) WriteJSON(w io.Writer) error {
	out := universeJSON{
		SigNumMaps: u.sigCfg.NumMaps,
		SigSeed:    u.sigCfg.Seed,
		Sources:    make([]sourceJSON, 0, len(u.sources)),
	}
	// One raw buffer and one base64 buffer reused across every signature: per
	// signature the only allocation left is the JSON string itself, instead of
	// a fresh marshal slice plus an EncodeToString copy. At 10⁵ sources the
	// difference is hundreds of MB of transient garbage.
	var raw, b64 []byte
	encode := func(sig interface {
		AppendBinary([]byte) ([]byte, error)
	}) (string, error) {
		var err error
		raw, err = sig.AppendBinary(raw[:0])
		if err != nil {
			return "", err
		}
		if n := base64.StdEncoding.EncodedLen(len(raw)); cap(b64) < n {
			b64 = make([]byte, n)
		} else {
			b64 = b64[:n]
		}
		base64.StdEncoding.Encode(b64, raw)
		return string(b64), nil
	}
	// Every source's names are slices of one flat buffer.
	names := make([]string, u.NumAttrs())
	for _, s := range u.sources {
		attrs := names[:s.Schema.Len():s.Schema.Len()]
		names = names[len(attrs):]
		for i := range attrs {
			attrs[i] = s.Schema.Name(i)
		}
		sj := sourceJSON{Name: s.Name, Attrs: attrs}
		if len(s.Characteristics) > 0 {
			sj.Characteristics = make(map[string]float64, len(s.Characteristics))
			for _, c := range s.Characteristics {
				sj.Characteristics[c.Name] = c.Value
			}
		}
		if s.Cardinality >= 0 {
			c := s.Cardinality
			sj.Cardinality = &c
		}
		if s.Signature != nil {
			enc, err := encode(s.Signature)
			if err != nil {
				return fmt.Errorf("source %q: %w", s.Name, err)
			}
			sj.Signature = enc
		}
		if s.AttrSignatures != nil {
			sj.AttrSignatures = make([]string, len(s.AttrSignatures))
			for i, sig := range s.AttrSignatures {
				if sig == nil {
					continue
				}
				enc, err := encode(sig)
				if err != nil {
					return fmt.Errorf("source %q attr %d: %w", s.Name, i, err)
				}
				sj.AttrSignatures[i] = enc
			}
		}
		out.Sources = append(out.Sources, sj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadJSON deserializes a universe written by WriteJSON. Schemas are built
// on the universe's vocabulary, and each source's characteristics are in
// name order.
func ReadJSON(r io.Reader) (*Universe, error) {
	var in universeJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("source: decode universe: %w", err)
	}
	cfg := pcsa.Config{NumMaps: in.SigNumMaps, Seed: in.SigSeed}
	// 0 maps is a universe without signatures; any other width must be one
	// pcsa accepts, since the solver sizes its union counters by it.
	if cfg.NumMaps != 0 {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("source: decode universe: %w", err)
		}
	}
	u := NewUniverse(cfg)
	for i, sj := range in.Sources {
		ids := make([]int32, len(sj.Attrs))
		for a, name := range sj.Attrs {
			ids[a] = u.vocab.Intern(name)
		}
		s := &Source{
			Name:        sj.Name,
			Schema:      schema.FromIDs(u.vocab, ids),
			Cardinality: -1,
		}
		if len(sj.Characteristics) > 0 {
			s.Characteristics = make([]Characteristic, 0, len(sj.Characteristics))
			for name, v := range sj.Characteristics {
				s.Characteristics = append(s.Characteristics, Characteristic{Name: name, Value: v})
			}
			slices.SortFunc(s.Characteristics, func(a, b Characteristic) int { return strings.Compare(a.Name, b.Name) })
		}
		if sj.Cardinality != nil {
			s.Cardinality = *sj.Cardinality
		}
		if sj.Signature != "" {
			raw, err := base64.StdEncoding.DecodeString(sj.Signature)
			if err != nil {
				return nil, fmt.Errorf("source %d (%q): signature: %w", i, sj.Name, err)
			}
			var sig pcsa.Signature
			if err := sig.UnmarshalBinary(raw); err != nil {
				return nil, fmt.Errorf("source %d (%q): signature: %w", i, sj.Name, err)
			}
			s.Signature = &sig
		}
		if sj.AttrSignatures != nil {
			s.AttrSignatures = make([]*minhash.Signature, len(sj.AttrSignatures))
			for a, enc := range sj.AttrSignatures {
				if enc == "" {
					continue
				}
				raw, err := base64.StdEncoding.DecodeString(enc)
				if err != nil {
					return nil, fmt.Errorf("source %d (%q) attr %d: %w", i, sj.Name, a, err)
				}
				var sig minhash.Signature
				if err := sig.UnmarshalBinary(raw); err != nil {
					return nil, fmt.Errorf("source %d (%q) attr %d: %w", i, sj.Name, a, err)
				}
				s.AttrSignatures[a] = &sig
			}
		}
		if _, err := u.Add(s); err != nil {
			return nil, fmt.Errorf("source %d (%q): %w", i, sj.Name, err)
		}
	}
	return u, nil
}
