package core

import (
	"fmt"

	"evorec/internal/measures"
	"evorec/internal/provenance"
	"evorec/internal/trend"
)

// TrendAnalysis evaluates the given measure over every consecutive version
// pair of the engine's chain and returns the per-entity trend analysis
// ("observe changes trends", paper §I). Each pair's context comes from
// Context, is built for the call and dropped with it (contexts are not
// cached); the engine's carried analysis means each version is analyzed
// once for both pairs it belongs to. The analysis is recorded in
// provenance.
func (e *Engine) TrendAnalysis(measureID string) (*trend.Analysis, error) {
	m, ok := e.registry.Get(measureID)
	if !ok {
		return nil, fmt.Errorf("core: unknown measure %q", measureID)
	}
	if e.versions.Len() < 2 {
		return nil, fmt.Errorf("core: trend analysis needs at least 2 versions, have %d", e.versions.Len())
	}
	ids := e.versions.IDs()
	ctxs := make([]*measures.Context, 0, len(ids)-1)
	inputRecs := make([]string, 0, len(ids)-1)
	for i := 1; i < len(ids); i++ {
		ctx, err := e.Context(ids[i-1], ids[i])
		if err != nil {
			return nil, err
		}
		ctxs = append(ctxs, ctx)
		if rec, ok := e.prov.Creator("delta:" + pairKey(ids[i-1], ids[i])); ok {
			inputRecs = append(inputRecs, rec.ID)
		}
	}
	a, err := trend.AnalyzeWithContexts(ctxs, m)
	if err != nil {
		return nil, err
	}
	artifact := fmt.Sprintf("trend:%s:%s..%s", measureID, ids[0], ids[len(ids)-1])
	if _, err := e.prov.Append("analyze_trend", e.agent, provenance.Inference,
		inputRecs, []string{artifact},
		fmt.Sprintf("%d entities over %d pairs", a.Len(), len(ctxs))); err != nil {
		return nil, fmt.Errorf("core: recording trend provenance: %w", err)
	}
	return a, nil
}
