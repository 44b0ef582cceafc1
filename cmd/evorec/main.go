// Command evorec is the CLI front-end of the evolution-measure recommender.
//
// Subcommands:
//
//	generate   write a synthetic evolving dataset as N-Triples files
//	diff       print delta statistics and high-level changes of two versions
//	measures   print the top-k entities of every evolution measure
//	recommend  recommend measures for a user's interests
//	trend      analyze change trends over a chain of versions
//	store      pack, unpack, or verify the segment store
//	report     personalized evolution digest for a user
//	summarize  relevance-based schema summary of one version
//	serve      run the HTTP evolution service over stored datasets
//	exp        regenerate the experiment suite's tables and figures
//	sim        deterministic workload soak against a live service
//
// Run "evorec <subcommand> -h" for flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"evorec"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "measures":
		err = cmdMeasures(os.Args[2:])
	case "recommend":
		err = cmdRecommend(os.Args[2:])
	case "trend":
		err = cmdTrend(os.Args[2:])
	case "store":
		err = cmdStore(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "summarize":
		err = cmdSummarize(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "exp":
		err = cmdExp(os.Args[2:], os.Stdout)
	case "sim":
		err = cmdSim(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "evorec: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "evorec:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: evorec <subcommand> [flags]

subcommands:
  generate   write a synthetic evolving dataset as N-Triples files
  diff       print delta statistics and high-level changes of two versions
  measures   print the top-k entities of every evolution measure
  recommend  recommend measures for a user's interests
  trend      analyze change trends over a chain of versions
  store      pack, unpack, or verify the segment store
  report     personalized evolution digest for a user
  summarize  relevance-based schema summary of one version
  serve      run the HTTP evolution service over stored datasets
  exp        regenerate the experiment suite's tables and figures
  sim        deterministic workload soak against a live service`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	out := fs.String("out", ".", "output directory for vN.nt files")
	preset := fs.String("preset", "small", "KB preset: small or dbpedia")
	steps := fs.Int("steps", 3, "number of evolution steps")
	ops := fs.Int("ops", 100, "change operations per step")
	locality := fs.Float64("locality", 0.8, "change locality in [0,1]")
	seed := fs.Int64("seed", 42, "generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var kb evorec.KBConfig
	switch *preset {
	case "small":
		kb = evorec.SmallKB()
	case "dbpedia":
		kb = evorec.DBpediaLikeKB()
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}
	vs, focuses, err := evorec.GenerateVersions(kb,
		evorec.EvolveConfig{Ops: *ops, Locality: *locality}, *steps, *seed)
	if err != nil {
		return err
	}
	if err := writeVersions(vs, *out); err != nil {
		return err
	}
	for i, f := range focuses {
		fmt.Printf("step %d change burst centered on %s\n", i+1, f.Local())
	}
	return nil
}

func loadVersion(path, id string) (*evorec.Version, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := evorec.ReadNTriples(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &evorec.Version{ID: id, Graph: g}, nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: evorec diff <older.nt> <newer.nt>")
	}
	older, err := loadVersion(fs.Arg(0), "older")
	if err != nil {
		return err
	}
	newer, err := loadVersion(fs.Arg(1), "newer")
	if err != nil {
		return err
	}
	d := evorec.ComputeDelta(older.Graph, newer.Graph)
	fmt.Printf("|δ+| = %d   |δ−| = %d   |δ| = %d\n",
		len(d.Added), len(d.Deleted), d.Size())
	changes := evorec.DetectHighLevel(older.Graph, newer.Graph)
	fmt.Printf("high-level changes: %d\n", len(changes))
	for _, c := range changes {
		fmt.Println(" ", c)
	}
	return nil
}

func cmdMeasures(args []string) error {
	fs := flag.NewFlagSet("measures", flag.ExitOnError)
	k := fs.Int("k", 5, "entities to show per measure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: evorec measures [-k N] <older.nt> <newer.nt>")
	}
	older, err := loadVersion(fs.Arg(0), "older")
	if err != nil {
		return err
	}
	newer, err := loadVersion(fs.Arg(1), "newer")
	if err != nil {
		return err
	}
	ctx := evorec.NewMeasureContext(older, newer)
	for _, m := range evorec.DefaultMeasures() {
		fmt.Printf("%s — %s\n", m.ID(), m.Name())
		scores := m.Compute(ctx)
		for _, e := range scores.Rank().TopK(*k) {
			if e.Score == 0 {
				break
			}
			fmt.Printf("  %-30s %.4f\n", e.Term.Local(), e.Score)
		}
	}
	return nil
}

func cmdRecommend(args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	k := fs.Int("k", 3, "measures to recommend")
	interests := fs.String("interests", "", "comma-separated Class=weight interests")
	profilePath := fs.String("profile", "", "JSON profile file (alternative to -interests)")
	strategy := fs.String("strategy", "plain", "plain|mmr|maxmin|novelty|semantic")
	lambda := fs.Float64("lambda", 0.5, "MMR relevance/diversity mix")
	report := fs.Bool("report", false, "print the transparency report of the top-ranked measure's scores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: evorec recommend [flags] <older.nt> <newer.nt>")
	}
	older, err := loadVersion(fs.Arg(0), "older")
	if err != nil {
		return err
	}
	newer, err := loadVersion(fs.Arg(1), "newer")
	if err != nil {
		return err
	}
	user, err := loadUser(*profilePath, *interests)
	if err != nil {
		return err
	}
	strat, err := evorec.ParseStrategy(*strategy)
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
	recs, err := eng.Recommend(user, evorec.Request{
		OlderID: older.ID, NewerID: newer.ID, K: *k,
		Strategy: strat, Lambda: *lambda,
	})
	if err != nil {
		return err
	}
	idx, err := eng.ItemIndex(older.ID, newer.ID)
	if err != nil {
		return err
	}
	fmt.Printf("recommended measures for interests %q (strategy=%s):\n", *interests, strat)
	for rank, r := range recs {
		var name string
		if it, ok := idx.ByID(r.MeasureID); ok {
			name = it.Measure.Name()
		}
		fmt.Printf("  %d. %-28s %s (score %.3f)\n", rank+1, r.MeasureID, name, r.Score)
	}
	if *report && len(recs) > 0 {
		fmt.Println()
		fmt.Print(eng.Provenance().Report(evorec.ScoresArtifact(recs[0].MeasureID, older.ID, newer.ID)))
	}
	return nil
}

// writeVersions writes every version of vs as sorted N-Triples dir/<id>.nt,
// creating dir if needed.
func writeVersions(vs *evorec.VersionStore, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, id := range vs.IDs() {
		v, _ := vs.Get(id)
		path := filepath.Join(dir, id+".nt")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := evorec.WriteNTriples(f, v.Graph); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d triples)\n", path, v.Graph.Len())
	}
	return nil
}

// loadUser resolves the user profile: from a JSON file when -profile is
// given, else from the -interests spec.
func loadUser(profilePath, interests string) (*evorec.Profile, error) {
	if profilePath != "" {
		f, err := os.Open(profilePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return evorec.ReadProfileJSON(f)
	}
	return evorec.ParseInterests("cli-user", interests)
}
