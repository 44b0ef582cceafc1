package main

import (
	"flag"
	"fmt"

	"evorec"
)

// cmdReport prints the personalized evolution digest for a user over a
// version pair: the paper's end product in one command.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	k := fs.Int("k", 3, "measures to recommend inside the digest")
	interests := fs.String("interests", "", "comma-separated Class=weight interests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: evorec report -interests ... <older.nt> <newer.nt>")
	}
	older, err := loadVersion(fs.Arg(0), "older")
	if err != nil {
		return err
	}
	newer, err := loadVersion(fs.Arg(1), "newer")
	if err != nil {
		return err
	}
	user, err := evorec.ParseInterests("cli-user", *interests)
	if err != nil {
		return err
	}
	eng := evorec.NewEngine(evorec.EngineConfig{})
	if err := eng.Ingest(older); err != nil {
		return err
	}
	if err := eng.Ingest(newer); err != nil {
		return err
	}
	rep, err := eng.UserReport(user, evorec.Request{
		OlderID: older.ID, NewerID: newer.ID, K: *k,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep)
	return nil
}

// cmdSummarize prints the k-class relevance summary of one version.
func cmdSummarize(args []string) error {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	k := fs.Int("k", 10, "classes to include in the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: evorec summarize [-k N] <version.nt>")
	}
	v, err := loadVersion(fs.Arg(0), "v")
	if err != nil {
		return err
	}
	s, err := evorec.Summarize(v.Graph, *k)
	if err != nil {
		return err
	}
	fmt.Printf("schema summary (%d selected + %d linking classes, instance coverage %.1f%%)\n",
		len(s.Selected), len(s.Linking), 100*s.InstanceCoverage)
	fmt.Println("classes by relevance:")
	for _, c := range s.Selected {
		fmt.Printf("  %-20s %.4f\n", c.Local(), s.Relevance[c])
	}
	if len(s.Linking) > 0 {
		fmt.Println("linking classes:")
		for _, c := range s.Linking {
			fmt.Printf("  %-20s %.4f\n", c.Local(), s.Relevance[c])
		}
	}
	fmt.Printf("edges: %d\n", len(s.Edges))
	for _, e := range s.Edges {
		fmt.Printf("  %s -- %s\n", e[0].Local(), e[1].Local())
	}
	return nil
}
