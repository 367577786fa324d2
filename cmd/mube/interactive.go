package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mube/internal/schema"
	"mube/internal/session"
	"mube/internal/source"
)

// cmdInteractive runs the iterative µBE loop as a line-oriented REPL — the
// terminal counterpart of the paper's Figure 4 UI: solve, inspect the
// solution, edit constraints and weights, solve again.
func cmdInteractive(args []string) error {
	fs := flag.NewFlagSet("interactive", flag.ExitOnError)
	sf := registerSessionFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, u, err := sf.buildSession()
	if err != nil {
		return err
	}
	return runREPL(s, u, os.Stdin, os.Stdout)
}

// runREPL drives one session over the given streams; split from
// cmdInteractive so tests can script it.
func runREPL(s *session.Session, u *source.Universe, in io.Reader, out io.Writer) error {
	fmt.Fprintf(out, "µBE interactive session over %d sources. Type 'help' for commands.\n", u.Len())
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "µbe> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd, rest := fields[0], fields[1:]
		switch cmd {
		case "quit", "exit", "q":
			return nil
		case "help", "h":
			printREPLHelp(out)
		case "solve":
			if _, err := s.Solve(); err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			printSolution(out, u, s.Last())
		case "show":
			if it := s.Last(); it != nil {
				printSolution(out, u, it)
			} else {
				fmt.Fprintln(out, "no iterations yet; type 'solve'")
			}
		case "spec":
			printSpec(out, s)
		case "require":
			forEachID(out, rest, func(id schema.SourceID) {
				if err := s.RequireSource(id); err != nil {
					fmt.Fprintln(out, "error:", err)
				}
			})
		case "drop":
			forEachID(out, rest, s.DropSourceConstraint)
		case "pin":
			// pin <iteration> <ga-index>, or "pin last <ga-index>"
			if len(rest) != 2 {
				fmt.Fprintln(out, "usage: pin <iteration|last> <ga-index>")
				continue
			}
			iter := len(s.History()) - 1
			if rest[0] != "last" {
				if v, err := strconv.Atoi(rest[0]); err == nil {
					iter = v
				} else {
					fmt.Fprintln(out, "error:", err)
					continue
				}
			}
			gaIdx, err := strconv.Atoi(rest[1])
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if err := s.PinSolutionGA(iter, gaIdx); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		case "bridge":
			// bridge s0.a1 s3.a0 ... — pin a hand-built GA constraint.
			refs, err := parseRefs(rest)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if err := s.PinGA(schema.NewGA(refs...)); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		case "clear":
			s.ClearConstraints()
		case "weight":
			if len(rest) != 2 {
				fmt.Fprintln(out, "usage: weight <qef-name> <value in [0,1]>")
				continue
			}
			v, err := strconv.ParseFloat(rest[1], 64)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if err := s.SetWeight(rest[0], v); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		case "theta":
			setFloat(out, rest, s.SetTheta)
		case "beta":
			setInt(out, rest, s.SetBeta)
		case "m":
			setInt(out, rest, s.SetMaxSources)
		case "solver":
			if len(rest) != 1 {
				fmt.Fprintln(out, "usage: solver <tabu|sls|anneal|pso|random|exhaustive>")
				continue
			}
			if err := s.SetSolver(rest[0]); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		case "source":
			forEachID(out, rest, func(id schema.SourceID) {
				if int(id) >= u.Len() {
					fmt.Fprintln(out, "error: out of range")
					return
				}
				src := u.Source(id)
				fmt.Fprintf(out, "[%3d] %-18s %s\n", id, src.Name, src.Schema)
			})
		case "save":
			if len(rest) != 1 {
				fmt.Fprintln(out, "usage: save <file>   (writes the current spec; reload with mube solve/interactive -spec)")
				continue
			}
			if err := writeFile(rest[0], s.SaveSpec); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "wrote", rest[0])
			}
		case "report":
			if len(rest) != 1 {
				fmt.Fprintln(out, "usage: report <file>")
				continue
			}
			if err := writeFile(rest[0], s.WriteReport); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "wrote", rest[0])
			}
		default:
			fmt.Fprintf(out, "unknown command %q; type 'help'\n", cmd)
		}
	}
}

// printREPLHelp lists the REPL commands.
func printREPLHelp(out io.Writer) {
	fmt.Fprint(out, `commands:
  solve                      run one µBE iteration
  show                       reprint the last solution
  spec                       show current weights, θ, β, m, constraints
  require <id> [id...]       add source constraints
  drop <id> [id...]          remove source constraints
  pin <iter|last> <ga>       adopt a GA from a past solution as a constraint
  bridge s<i>.a<j> s<k>.a<l> pin a hand-built GA constraint (≥2 refs)
  clear                      remove all constraints
  weight <qef> <v>           set one QEF weight (others rescale)
  theta <v> | beta <n> | m <n>
  solver <name>              tabu|sls|anneal|pso|random|exhaustive
  source <id> [id...]        show source schemas
  save <file>                save the current spec (resume with -spec)
  report <file>              write the session history as JSON
  quit
`)
}

// printSpec shows the editable problem specification.
func printSpec(out io.Writer, s *session.Session) {
	spec := s.Spec()
	fmt.Fprintf(out, "solver=%s  m=%d  theta=%.2f  beta=%d\n", spec.Solver, spec.MaxSources, spec.Theta, spec.Beta)
	fmt.Fprint(out, "weights:")
	for _, name := range spec.Weights.Names() {
		fmt.Fprintf(out, " %s=%.3f", name, spec.Weights[name])
	}
	fmt.Fprintln(out)
	if len(spec.Constraints.Sources) > 0 {
		fmt.Fprintf(out, "source constraints: %v\n", spec.Constraints.Sources)
	}
	for i, g := range spec.Constraints.GAs {
		fmt.Fprintf(out, "GA constraint %d: %v\n", i, g)
	}
}

// forEachID parses each argument as a source ID and applies fn.
func forEachID(out io.Writer, args []string, fn func(schema.SourceID)) {
	if len(args) == 0 {
		fmt.Fprintln(out, "expected at least one source id")
		return
	}
	for _, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		fn(schema.SourceID(v))
	}
}

// parseRefs parses "s<i>.a<j>" attribute references.
func parseRefs(args []string) ([]schema.AttrRef, error) {
	if len(args) < 2 {
		return nil, fmt.Errorf("a GA constraint needs at least two attribute refs")
	}
	refs := make([]schema.AttrRef, 0, len(args))
	for _, a := range args {
		var s, at int
		if _, err := fmt.Sscanf(a, "s%d.a%d", &s, &at); err != nil {
			return nil, fmt.Errorf("bad ref %q (want s<i>.a<j>)", a)
		}
		refs = append(refs, schema.AttrRef{Source: schema.SourceID(s), Attr: at})
	}
	return refs, nil
}

// setFloat applies a one-float-argument setter.
func setFloat(out io.Writer, args []string, fn func(float64) error) {
	if len(args) != 1 {
		fmt.Fprintln(out, "expected one value")
		return
	}
	v, err := strconv.ParseFloat(args[0], 64)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	if err := fn(v); err != nil {
		fmt.Fprintln(out, "error:", err)
	}
}

// setInt applies a one-int-argument setter.
func setInt(out io.Writer, args []string, fn func(int) error) {
	if len(args) != 1 {
		fmt.Fprintln(out, "expected one value")
		return
	}
	v, err := strconv.Atoi(args[0])
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	if err := fn(v); err != nil {
		fmt.Fprintln(out, "error:", err)
	}
}
