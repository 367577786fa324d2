package main

import (
	"flag"
	"fmt"
	"os"

	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/synth"
)

// cmdGen generates a synthetic universe and writes it as JSON.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	n := fs.Int("n", 200, "number of sources")
	seed := fs.Int64("seed", 1, "generation seed")
	scale := fs.Float64("scale", 0.01, "data scale factor (1 = paper's 4M-tuple pool)")
	out := fs.String("o", "universe.json", "output file ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := synth.Scaled(*scale)
	cfg.NumSources = *n
	cfg.Seed = *seed
	res, err := synth.Generate(cfg)
	if err != nil {
		return err
	}

	if *out == "-" {
		return res.Universe.WriteJSON(os.Stdout)
	}
	if err := writeFile(*out, res.Universe.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("wrote %d sources (%d conformant, pool scale %g, seed %d) to %s\n",
		res.Universe.Len(), len(res.Conformant), *scale, *seed, *out)
	return nil
}

// cmdInspect summarizes a universe file.
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("u", "universe.json", "universe file")
	sourceID := fs.Int("source", -1, "show one source in detail")
	if err := fs.Parse(args); err != nil {
		return err
	}
	u, err := loadUniverse(*in)
	if err != nil {
		return err
	}

	if *sourceID >= 0 {
		if *sourceID >= u.Len() {
			return fmt.Errorf("source %d out of range [0,%d)", *sourceID, u.Len())
		}
		s := u.Source(schema.SourceID(*sourceID))
		fmt.Printf("source %d: %s\n", *sourceID, s.Name)
		fmt.Printf("  schema:      %s\n", s.Schema)
		if s.Cooperative() {
			fmt.Printf("  cardinality: %d tuples (≈%.0f distinct)\n", s.Cardinality, s.Signature.Estimate())
		} else {
			fmt.Printf("  cardinality: (uncooperative)\n")
		}
		// ReadJSON leaves each source's characteristics in name order.
		for _, c := range s.Characteristics {
			fmt.Printf("  %-12s %.2f\n", c.Name+":", c.Value)
		}
		return nil
	}

	coop := 0
	for _, s := range u.Sources() {
		if s.Cooperative() {
			coop++
		}
	}
	fmt.Printf("universe: %d sources (%d cooperative), %d attributes\n",
		u.Len(), coop, u.NumAttrs())
	fmt.Printf("total tuples: %d, distinct (estimated): %.0f\n",
		u.TotalCardinality(), u.UnionAllEstimate())
	if chars := u.CharacteristicNames(); len(chars) > 0 {
		fmt.Printf("characteristics: %v\n", chars)
	}
	return nil
}

// loadUniverse reads a universe JSON file.
func loadUniverse(path string) (*source.Universe, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return source.ReadJSON(f)
}
