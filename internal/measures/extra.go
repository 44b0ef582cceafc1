package measures

import (
	"math"

	"evorec/internal/rdf"
)

// This file holds the additional measures beyond the paper's §II exemplar
// set. The paper explicitly envisions "existing and additional evolution
// measures, flexible enough to capture the peculiarities and needs of
// different applications"; these cover further structural signals
// (PageRank, clustering), pure instance churn, and property-usage drift.
// They live in ExtendedSet and are not part of DefaultSet, so the headline
// experiments keep evaluating exactly the paper's measures.

// ---------------------------------------------------------------------------
// PageRankShift

// PageRankShift scores each class by the absolute change of its PageRank in
// the class-level structural graph: a global-importance counterpart to the
// local betweenness signal.
type PageRankShift struct{}

// ID implements Measure.
func (PageRankShift) ID() string { return "pagerank_shift" }

// Name implements Measure.
func (PageRankShift) Name() string { return "PageRank shift" }

// Description implements Measure.
func (PageRankShift) Description() string {
	return "Absolute difference of class PageRank in the structural class graph across versions (additional structural measure)."
}

// Target implements Measure.
func (PageRankShift) Target() Target { return Classes }

// Category implements Measure.
func (PageRankShift) Category() Category { return CategoryStructural }

// pageRankParams centralizes the damping and convergence settings.
const (
	prDamping = 0.85
	prEps     = 1e-9
	prMaxIter = 100
)

// Compute implements Measure.
func (PageRankShift) Compute(ctx *Context) Scores {
	older := ctx.Older.classVector(ctx.Older.Struct.PageRank(prDamping, prEps, prMaxIter))
	newer := ctx.Newer.classVector(ctx.Newer.Struct.PageRank(prDamping, prEps, prMaxIter))
	return ctx.classes.shift(older, newer)
}

// ---------------------------------------------------------------------------
// ClusteringShift

// ClusteringShift scores each class by the absolute change of its local
// clustering coefficient: it fires when the neighborhood around a class
// densifies or unravels even if the class keeps its degree.
type ClusteringShift struct{}

// ID implements Measure.
func (ClusteringShift) ID() string { return "clustering_shift" }

// Name implements Measure.
func (ClusteringShift) Name() string { return "Clustering coefficient shift" }

// Description implements Measure.
func (ClusteringShift) Description() string {
	return "Absolute difference of the class's local clustering coefficient across versions (additional structural measure)."
}

// Target implements Measure.
func (ClusteringShift) Target() Target { return Classes }

// Category implements Measure.
func (ClusteringShift) Category() Category { return CategoryStructural }

// Compute implements Measure.
func (ClusteringShift) Compute(ctx *Context) Scores {
	older := ctx.Older.classVector(ctx.Older.Struct.ClusteringCoefficient())
	newer := ctx.Newer.classVector(ctx.Newer.Struct.ClusteringCoefficient())
	return ctx.classes.shift(older, newer)
}

// ---------------------------------------------------------------------------
// InstanceChurn

// InstanceChurn counts, per class, the rdf:type assertions that were added
// or deleted — pure population churn, ignoring schema edits and literal
// noise that change_count also absorbs.
type InstanceChurn struct{}

// ID implements Measure.
func (InstanceChurn) ID() string { return "instance_churn" }

// Name implements Measure.
func (InstanceChurn) Name() string { return "Instance churn" }

// Description implements Measure.
func (InstanceChurn) Description() string {
	return "Number of rdf:type assertions targeting the class added or deleted between versions (additional counting measure)."
}

// Target implements Measure.
func (InstanceChurn) Target() Target { return Classes }

// Category implements Measure.
func (InstanceChurn) Category() Category { return CategoryCount }

// Compute implements Measure.
func (InstanceChurn) Compute(ctx *Context) Scores {
	out := newScores(ctx.classes.axis)
	count := func(ts []rdf.Triple) {
		for _, t := range ts {
			if t.P == rdf.RDFType {
				if i, ok := out.axis.Index(t.O); ok {
					out.vals[i]++
				}
			}
		}
	}
	count(ctx.Delta.Added)
	count(ctx.Delta.Deleted)
	return out
}

// ---------------------------------------------------------------------------
// UsageShift

// UsageShift scores each property by the absolute change of its instance
// usage count: the simplest property-level drift signal, complementing the
// distribution-sensitive property_centrality_shift.
type UsageShift struct{}

// ID implements Measure.
func (UsageShift) ID() string { return "usage_shift" }

// Name implements Measure.
func (UsageShift) Name() string { return "Property usage shift" }

// Description implements Measure.
func (UsageShift) Description() string {
	return "Absolute difference of the property's instance usage count across versions (additional counting measure)."
}

// Target implements Measure.
func (UsageShift) Target() Target { return Properties }

// Category implements Measure.
func (UsageShift) Category() Category { return CategoryCount }

// Compute implements Measure.
func (UsageShift) Compute(ctx *Context) Scores {
	out := newScores(ctx.props.axis)
	for i, p := range out.axis.terms {
		var oldUse, newUse int
		if prop, ok := ctx.Older.Schema.Property(p); ok {
			oldUse = prop.UsageCount
		}
		if prop, ok := ctx.Newer.Schema.Property(p); ok {
			newUse = prop.UsageCount
		}
		out.vals[i] = math.Abs(float64(newUse - oldUse))
	}
	return out
}

// ---------------------------------------------------------------------------

// ExtendedSet returns the default (paper) measures plus the additional
// measures above, in a stable order.
func ExtendedSet() []Measure {
	return append(DefaultSet(),
		PageRankShift{},
		ClusteringShift{},
		InstanceChurn{},
		UsageShift{},
	)
}

// NewExtendedRegistry returns a registry holding ExtendedSet.
func NewExtendedRegistry() *Registry {
	r := &Registry{byID: make(map[string]Measure)}
	for _, m := range ExtendedSet() {
		r.byID[m.ID()] = m
	}
	return r
}
