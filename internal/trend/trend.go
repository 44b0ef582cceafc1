// Package trend analyzes evolution across whole version chains. The paper's
// introduction promises to help humans "observe changes trends and identify
// the most changed parts of a knowledge base"; this package supplies the
// trend half: per-entity time series of any evolution measure over all
// consecutive version pairs, least-squares slopes, volatility, burst
// detection, and a classification into trend shapes that reports and
// recommenders can consume.
package trend

import (
	"fmt"
	"math"
	"sort"

	"evorec/internal/delta"
	"evorec/internal/measures"
	"evorec/internal/rdf"
)

// Series is one entity's measure values over the consecutive version pairs
// of a chain, in evolution order.
type Series struct {
	// Term is the entity the series describes.
	Term rdf.Term
	// Values holds one measure value per consecutive version pair.
	Values []float64
}

// Len returns the number of observations.
func (s Series) Len() int { return len(s.Values) }

// Total returns the cumulative measure value over the chain.
func (s Series) Total() float64 {
	t := 0.0
	for _, v := range s.Values {
		t += v
	}
	return t
}

// Mean returns the mean value.
func (s Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Total() / float64(len(s.Values))
}

// Slope returns the least-squares slope of the series against time steps
// 0..n-1: positive means the entity is changing more and more.
func (s Series) Slope() float64 {
	n := float64(len(s.Values))
	if n < 2 {
		return 0
	}
	// x = 0..n-1: mean = (n-1)/2, Σ(x-mx)² = n(n²-1)/12.
	mx := (n - 1) / 2
	my := s.Mean()
	num := 0.0
	for i, v := range s.Values {
		num += (float64(i) - mx) * (v - my)
	}
	den := n * (n*n - 1) / 12
	return num / den
}

// Volatility returns the population standard deviation of the series.
func (s Series) Volatility() float64 {
	if len(s.Values) < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range s.Values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s.Values)))
}

// BurstIndex returns max/mean (1 for flat series, large when a single pair
// dominates). Zero-mean series return 0.
func (s Series) BurstIndex() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	max := 0.0
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	return max / m
}

// Shape classifies a series into the trend shapes reports consume.
type Shape uint8

const (
	// Quiet: the entity saw (almost) no change over the chain.
	Quiet Shape = iota
	// Rising: change intensity grows over time.
	Rising
	// Falling: change intensity decays over time.
	Falling
	// Bursty: one pair dominates the series.
	Bursty
	// Steady: sustained change without a clear direction.
	Steady
)

// String names the shape.
func (sh Shape) String() string {
	switch sh {
	case Quiet:
		return "quiet"
	case Rising:
		return "rising"
	case Falling:
		return "falling"
	case Bursty:
		return "bursty"
	case Steady:
		return "steady"
	default:
		return fmt.Sprintf("shape(%d)", uint8(sh))
	}
}

// Classify assigns the series a shape. The thresholds are relative to the
// series' own mean, so the classification is scale-free: a direction needs
// a slope moving the mean by ≥ 25% per step and takes precedence (an
// exponential decay is Falling, not Bursty); an undirected series with one
// pair at ≥ 2× the mean is Bursty.
func (s Series) Classify() Shape {
	m := s.Mean()
	if m == 0 {
		return Quiet
	}
	// A single spike can fake a direction; when a burst exists, judge the
	// direction on the series with the peak removed. An exponential rise or
	// decay keeps its direction after the cut, a one-off burst does not.
	judge := s
	if s.BurstIndex() >= 2 && len(s.Values) >= 3 {
		maxIdx := 0
		for i, v := range s.Values {
			if v > s.Values[maxIdx] {
				maxIdx = i
			}
		}
		rest := make([]float64, 0, len(s.Values)-1)
		rest = append(rest, s.Values[:maxIdx]...)
		rest = append(rest, s.Values[maxIdx+1:]...)
		judge = Series{Term: s.Term, Values: rest}
		if judge.Mean() == 0 {
			return Bursty
		}
		rel := judge.Slope() / judge.Mean()
		switch {
		case rel >= 0.25:
			return Rising
		case rel <= -0.25:
			return Falling
		default:
			return Bursty
		}
	}
	rel := s.Slope() / m
	switch {
	case rel >= 0.25:
		return Rising
	case rel <= -0.25:
		return Falling
	default:
		return Steady
	}
}

// Analysis holds the per-entity series of one measure over one chain.
type Analysis struct {
	// MeasureID names the measure the analysis tracks.
	MeasureID string
	// PairIDs labels the consecutive version pairs, in order.
	PairIDs []string
	series  map[rdf.Term]*Series
}

// Analyze evaluates the measure over every consecutive pair of the chain
// and assembles per-entity series. Entities absent from a pair's scores get
// a zero observation, so all series are index-aligned with PairIDs.
func Analyze(vs *rdf.VersionStore, m measures.Measure) (*Analysis, error) {
	if vs.Len() < 2 {
		return nil, fmt.Errorf("trend: need at least 2 versions, have %d", vs.Len())
	}
	a := &Analysis{MeasureID: m.ID(), series: make(map[rdf.Term]*Series)}
	// Each inner version is the newer side of one pair and the older side
	// of the next: analyze it once, and offer it to the next analysis.
	prev := measures.Analyze(vs.At(0).Graph, nil)
	vs.Pairs(func(older, newer *rdf.Version) bool {
		next := measures.Analyze(newer.Graph, prev)
		a.add(measures.NewContextFromAnalyses(prev, next, delta.ComputeVersions(older, newer)), m)
		prev = next
		return true
	})
	return a, nil
}

// AnalyzeWithContexts is Analyze over pre-built contexts (one per
// consecutive pair, in order), avoiding recomputation when several measures
// are analyzed over the same chain.
func AnalyzeWithContexts(ctxs []*measures.Context, m measures.Measure) (*Analysis, error) {
	if len(ctxs) == 0 {
		return nil, fmt.Errorf("trend: need at least 1 context")
	}
	a := &Analysis{MeasureID: m.ID(), series: make(map[rdf.Term]*Series)}
	for _, ctx := range ctxs {
		a.add(ctx, m)
	}
	return a, nil
}

// add appends one pair's observations: the measure's score for every entity
// it scores, zero for every tracked entity it does not. An entity first
// scored mid-chain starts with a zero for every earlier pair.
func (a *Analysis) add(ctx *measures.Context, m measures.Measure) {
	step := len(a.PairIDs)
	a.PairIDs = append(a.PairIDs, ctx.Delta.OlderID+"->"+ctx.Delta.NewerID)
	scores := m.Compute(ctx)
	for i := 0; i < scores.Len(); i++ {
		t := scores.Term(i)
		s, ok := a.series[t]
		if !ok {
			s = &Series{Term: t, Values: make([]float64, step)}
			a.series[t] = s
		}
		s.Values = append(s.Values, scores.Value(i))
	}
	for _, s := range a.series {
		if len(s.Values) == step {
			s.Values = append(s.Values, 0)
		}
	}
}

// Series returns the series for one entity (nil if never scored).
func (a *Analysis) Series(t rdf.Term) *Series { return a.series[t] }

// Terms returns all tracked entities, sorted.
func (a *Analysis) Terms() []rdf.Term {
	out := make([]rdf.Term, 0, len(a.series))
	for t := range a.series {
		out = append(out, t)
	}
	rdf.SortTerms(out)
	return out
}

// Len returns the number of tracked entities.
func (a *Analysis) Len() int { return len(a.series) }

// TopBy returns the k entities ranked by the given statistic, descending,
// ties broken by term order.
func (a *Analysis) TopBy(k int, stat func(*Series) float64) []*Series {
	out := make([]*Series, 0, len(a.series))
	for _, s := range a.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := stat(out[i]), stat(out[j])
		if si != sj {
			return si > sj
		}
		return out[i].Term.Compare(out[j].Term) < 0
	})
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

// TopTotal returns the k entities with the largest cumulative change.
func (a *Analysis) TopTotal(k int) []*Series {
	return a.TopBy(k, (*Series).Total)
}

// TopRising returns the k entities with the steepest positive slope.
func (a *Analysis) TopRising(k int) []*Series {
	return a.TopBy(k, (*Series).Slope)
}

// ShapeCounts tallies the trend classification over all entities.
func (a *Analysis) ShapeCounts() map[Shape]int {
	out := make(map[Shape]int)
	for _, s := range a.series {
		out[s.Classify()]++
	}
	return out
}
