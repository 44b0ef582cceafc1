package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"evorec/internal/exp"
)

// cmdExp regenerates the tables and figures of the experiment suite (see
// DESIGN.md §6). By default it runs the full suite at paper scale; -exp
// selects a single experiment and -scale test runs the reduced setup used by
// the unit tests. Output goes to w.
func cmdExp(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	expID := fs.String("exp", "", expFlagHelp())
	scale := fs.String("scale", "full", "experiment scale: full or test")
	seed := fs.Int64("seed", 42, "generation seed")
	users := fs.Int("users", 0, "override user population size (0 keeps the scale default)")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(w, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var p exp.Params
	switch *scale {
	case "full":
		p = exp.Defaults()
	case "test":
		p = exp.TestScale()
	default:
		return fmt.Errorf("unknown scale %q (want full or test)", *scale)
	}
	p.Seed = *seed
	if *users > 0 {
		p.Users = *users
	}

	if *expID == "" {
		return exp.RunAll(w, p)
	}
	e, ok := exp.Lookup(*expID)
	if !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", *expID)
	}
	out, err := e.Run(p)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, out)
	return err
}

// expFlagHelp is the -exp flag's help text, naming every experiment in the
// suite.
func expFlagHelp() string {
	ids := make([]string, 0, len(exp.All()))
	for _, e := range exp.All() {
		ids = append(ids, e.ID)
	}
	return "single experiment to run (" + strings.Join(ids, ", ") + "); empty runs all"
}
