// Command mube is the µBE command-line tool: generate or inspect source
// universes, solve one-shot source-selection/schema-mediation problems, and
// run the iterative feedback loop interactively (the terminal counterpart of
// the paper's Figure 4 UI).
//
// Subcommands:
//
//	mube gen -n 200 -scale 0.01 -o universe.json     generate a synthetic universe
//	mube inspect -u universe.json [-source 3]        summarize a universe
//	mube find -u universe.json author price          keyword source discovery
//	mube solve -u universe.json -m 20 [...]          one optimization run
//	mube interactive -u universe.json -m 20          iterative REPL session
//	mube watch -epochs 20 -churn 0.1 -trace t.jsonl  online integration under churn
//
// Run any subcommand with -h for its flags.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "find":
		err = cmdFind(os.Args[2:])
	case "solve":
		err = cmdSolve(os.Args[2:])
	case "interactive":
		err = cmdInteractive(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mube: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mube: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mube <subcommand> [flags]

subcommands:
  gen          generate a synthetic universe (BAMM-style Books domain)
  inspect      summarize a universe file
  find         rank sources against a keyword query (source discovery)
  solve        solve one source-selection / schema-mediation problem
  interactive  iterative µBE session (solve, give feedback, re-solve)
  watch        online-integration loop: churn epochs, incremental updates, warm re-solves

run 'mube <subcommand> -h' for flags`)
}

// writeFile replaces path with what write produces, atomically: the bytes go
// to a temporary file in path's directory, which is synced and renamed over
// path only once write and Close have both succeeded. On any error path is
// left as it was and the temporary file is removed. The file is created
// 0644, what os.Create gives under the usual umask.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name())
	}
	return err
}
