// Package exp defines the experiment suite of the reproduction. The paper
// is a vision paper with no evaluation section (see DESIGN.md §1), so each
// experiment here operationalizes one claim of the paper — the measures are
// complementary viewpoints, relatedness personalizes, diversity trades
// against relevance, least-misery aggregation is fairer, anonymity costs
// utility — and produces the table or series that quantifies it. The same
// functions back `evorec exp` and the root-level Go benchmarks.
package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"

	"evorec/internal/core"
	"evorec/internal/measures"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
	"evorec/internal/schema"
	"evorec/internal/synth"
)

// Params sizes an experiment run. Defaults() gives the paper-scale setup;
// tests shrink it for speed.
type Params struct {
	// Seed drives all generation; equal seeds give identical tables.
	Seed int64
	// KB shapes each generated version.
	KB synth.KBConfig
	// Steps is the number of evolution steps (versions = Steps + 1).
	Steps int
	// Ops is the number of change operations per evolution step.
	Ops int
	// Locality is the change-concentration of each step.
	Locality float64
	// Users is the synthetic population size.
	Users int
	// K is the recommendation list length.
	K int
}

// Defaults returns the standard experiment scale: a DBpedia-shaped KB with
// five versions and a population of 40 users.
func Defaults() Params {
	return Params{
		Seed:     42,
		KB:       synth.DBpediaLike(),
		Steps:    4,
		Ops:      300,
		Locality: 0.8,
		Users:    40,
		K:        3,
	}
}

// TestScale returns a reduced setup for unit tests and smoke runs.
func TestScale() Params {
	return Params{
		Seed:     42,
		KB:       synth.Small(),
		Steps:    2,
		Ops:      60,
		Locality: 0.8,
		Users:    12,
		K:        3,
	}
}

// Dataset bundles the synthetic world one experiment run operates on.
type Dataset struct {
	// Versions is the evolving dataset.
	Versions *rdf.VersionStore
	// Focuses records where each evolution step planted its change burst.
	Focuses []rdf.Term
	// Ctx is the analysis context of the final version pair.
	Ctx *measures.Context
	// Items are the evaluated measures of the final pair.
	Items []recommend.Item
	// Index is the scoring kernel over Items; every ranking, selection and
	// evaluation metric goes through it.
	Index *recommend.ItemIndex
	// Pool is the synthetic user population (profiles over the first
	// version's schema).
	Pool []*profile.Profile
	// PoolFocus is each user's focus class (ground truth for relatedness).
	PoolFocus []rdf.Term
}

// BuildDataset generates the synthetic world for the given parameters.
func BuildDataset(p Params) (*Dataset, error) {
	vs, focuses, err := synth.GenerateVersions(p.KB,
		synth.EvolveConfig{Ops: p.Ops, Locality: p.Locality}, p.Steps, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("exp: generating versions: %w", err)
	}
	n := vs.Len()
	older := vs.At(n - 2)
	newer := vs.At(n - 1)
	ctx := measures.NewContext(older, newer)
	items := recommend.BuildItems(ctx, measures.NewRegistry())

	sch := schema.Extract(vs.At(0).Graph)
	rng := rand.New(rand.NewSource(p.Seed + 1))
	pool, poolFocus, err := synth.GenerateProfiles(sch,
		synth.ProfileConfig{Users: p.Users, ExtraInterests: 2}, rng)
	if err != nil {
		return nil, fmt.Errorf("exp: generating profiles: %w", err)
	}
	return &Dataset{
		Versions:  vs,
		Focuses:   focuses,
		Ctx:       ctx,
		Items:     items,
		Index:     recommend.NewItemIndex(items),
		Pool:      pool,
		PoolFocus: poolFocus,
	}, nil
}

// BuildEngine constructs an engine preloaded with the dataset's versions.
func BuildEngine(ds *Dataset) (*core.Engine, error) {
	e := core.New(core.Config{})
	if err := e.IngestAll(ds.Versions); err != nil {
		return nil, err
	}
	return e, nil
}

// lastPairIDs returns the version IDs of the dataset's final pair.
func (ds *Dataset) lastPairIDs() (string, string) {
	n := ds.Versions.Len()
	return ds.Versions.At(n - 2).ID, ds.Versions.At(n - 1).ID
}

// table is a small tabwriter helper accumulating one formatted table.
type table struct {
	b strings.Builder
	w *tabwriter.Writer
}

func newTable(title string) *table {
	t := &table{}
	t.b.WriteString(title)
	t.b.WriteByte('\n')
	t.w = tabwriter.NewWriter(&t.b, 2, 4, 2, ' ', 0)
	return t
}

func (t *table) row(cells ...string) {
	fmt.Fprintln(t.w, strings.Join(cells, "\t"))
}

func (t *table) rowf(format string, args ...any) {
	fmt.Fprintf(t.w, format+"\n", args...)
}

func (t *table) String() string {
	t.w.Flush()
	return t.b.String()
}

// classItems filters the items whose measure targets classes (the
// population over which the measure rankings are comparable).
func classItems(items []recommend.Item) []recommend.Item {
	var out []recommend.Item
	for _, it := range items {
		if tgt := it.Measure.Target(); tgt == measures.Classes || tgt == measures.ClassesAndProperties {
			out = append(out, it)
		}
	}
	return out
}
