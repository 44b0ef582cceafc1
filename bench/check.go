package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"evorec/internal/core"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
	"evorec/internal/service"
)

// readArgs are a scoring read's parsed inputs: the profiles and request the
// HTTP layer builds from the query string.
type readArgs struct {
	user  *profile.Profile
	group *profile.Group
	pool  []*profile.Profile
	req   core.Request
	greq  core.GroupRequest
}

func parseRead(op *Op) (*readArgs, error) {
	a := &readArgs{}
	switch op.Kind {
	case Recommend:
		u, err := profile.ParseInterests(op.User, op.Interests)
		if err != nil {
			return nil, err
		}
		strat, err := strategyOf(op.Strategy)
		if err != nil {
			return nil, err
		}
		a.user = u
		a.req = core.Request{OlderID: op.Older, NewerID: op.Newer, K: op.K, Strategy: strat}
	case Group:
		pool, err := userSpecs(op.Members)
		if err != nil {
			return nil, err
		}
		if a.group, err = profile.NewGroup("group", pool); err != nil {
			return nil, err
		}
		agg, err := aggregationOf(op.Agg)
		if err != nil {
			return nil, err
		}
		a.greq = core.GroupRequest{OlderID: op.Older, NewerID: op.Newer, K: op.K, Aggregation: agg}
	case Notify:
		pool, err := userSpecs(op.Members)
		if err != nil {
			return nil, err
		}
		a.pool = pool
	default:
		return nil, fmt.Errorf("%s is not a scoring read", op.Kind)
	}
	return a, nil
}

func userSpecs(specs []string) ([]*profile.Profile, error) {
	out := make([]*profile.Profile, 0, len(specs))
	for _, s := range specs {
		p, err := profile.ParseUserSpec(s)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// strategyOf and aggregationOf accept the HTTP layer's spellings.
func strategyOf(name string) (core.Strategy, error) {
	for _, s := range []core.Strategy{core.Plain, core.DiverseMMR, core.DiverseMaxMin, core.NoveltyAware, core.SemanticDiverse} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
}

func aggregationOf(name string) (recommend.Aggregation, error) {
	for _, a := range []recommend.Aggregation{recommend.Average, recommend.LeastMisery, recommend.MostPleasure} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown aggregation %q", name)
}

// onEngine scores the read on an engine.
func (a *readArgs) onEngine(eng *core.Engine, op *Op) ([]rec, []note, error) {
	switch op.Kind {
	case Recommend:
		sel, err := eng.Recommend(a.user, a.req)
		return toRecs(sel), nil, err
	case Group:
		sel, err := eng.RecommendGroup(a.group, a.greq)
		return toRecs(sel), nil, err
	default:
		ns, err := eng.Notify(a.pool, op.Older, op.Newer, op.Threshold, op.K)
		return nil, toNotes(ns), err
	}
}

// onService scores the read through the service's ctx-taking methods.
func (a *readArgs) onService(ctx context.Context, d *service.Dataset, op *Op) ([]rec, []note, error) {
	switch op.Kind {
	case Recommend:
		sel, err := d.RecommendCtx(ctx, a.user, a.req)
		return toRecs(sel), nil, err
	case Group:
		sel, err := d.RecommendGroupCtx(ctx, a.group, a.greq)
		return toRecs(sel), nil, err
	default:
		ns, err := d.NotifyCtx(ctx, a.pool, op.Older, op.Newer, op.Threshold, op.K)
		return nil, toNotes(ns), err
	}
}

func toRecs(sel []recommend.Recommendation) []rec {
	out := make([]rec, len(sel))
	for i, r := range sel {
		out[i] = rec{Rank: i + 1, Measure: r.MeasureID, Score: r.Score}
	}
	return out
}

func toNotes(ns []core.Notification) []note {
	out := make([]note, len(ns))
	for i, n := range ns {
		out[i] = note{User: n.UserID, Measure: n.MeasureID, Relatedness: n.Relatedness}
	}
	return out
}

// sameFloat compares bitwise, so a NaN equals itself and -0 differs from 0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameOutputs reports whether two executions of one op produced the same
// outputs: ranked lists and notifications bitwise, fan-out stats and the
// number of feed entries exactly.
func sameOutputs(a, b *outcome) bool {
	if len(a.Recs) != len(b.Recs) || len(a.Notes) != len(b.Notes) || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Recs {
		if a.Recs[i].Measure != b.Recs[i].Measure || !sameFloat(a.Recs[i].Score, b.Recs[i].Score) {
			return false
		}
	}
	for i := range a.Notes {
		x, y := a.Notes[i], b.Notes[i]
		if x.User != y.User || x.Measure != y.Measure || !sameFloat(x.Relatedness, y.Relatedness) {
			return false
		}
	}
	if (a.Fan == nil) != (b.Fan == nil) {
		return false
	}
	return a.Fan == nil || (a.Fan.Subscribers == b.Fan.Subscribers &&
		a.Fan.Affected == b.Fan.Affected && a.Fan.Notified == b.Fan.Notified)
}

// refEngines rebuilds the served datasets in-process, one core.Engine per
// dataset, from the same graphs and commit bodies the server received.
type refEngines struct {
	sched  *Schedule
	bodies map[string]map[string][]byte
	engs   map[string]*core.Engine
	dicts  map[string]*rdf.Dict
}

func newRefEngines(s *Schedule) *refEngines {
	r := &refEngines{sched: s, bodies: make(map[string]map[string][]byte),
		engs: make(map[string]*core.Engine), dicts: make(map[string]*rdf.Dict)}
	for _, ops := range [][]*Op{s.Setup, s.Open, s.Closed} {
		for _, op := range ops {
			if op.Kind == Commit {
				if r.bodies[op.Dataset] == nil {
					r.bodies[op.Dataset] = make(map[string][]byte)
				}
				r.bodies[op.Dataset][op.Version] = op.Body
			}
		}
	}
	return r
}

// engine returns the dataset's reference engine with the versions ingested.
func (r *refEngines) engine(ds string, ids ...string) (*core.Engine, error) {
	eng := r.engs[ds]
	if eng == nil {
		eng = core.New(core.Config{})
		r.engs[ds] = eng
		// Committed bodies intern into the seeded chain's dictionary, as the
		// server's store does; in-memory datasets start a fresh one.
		r.dicts[ds] = rdf.NewDict()
		for _, g := range r.sched.ref[ds] {
			r.dicts[ds] = g.Dict()
			break
		}
	}
	for _, id := range ids {
		if _, ok := eng.Versions().Get(id); ok {
			continue
		}
		g := r.sched.ref[ds][id]
		if g == nil {
			body, ok := r.bodies[ds][id]
			if !ok {
				return nil, fmt.Errorf("reference: no graph or body for %s/%s", ds, id)
			}
			g = rdf.NewGraphWithDict(r.dicts[ds])
			if err := rdf.ReadNTriplesInto(g, bytes.NewReader(body)); err != nil {
				return nil, fmt.Errorf("reference: parsing %s/%s: %w", ds, id, err)
			}
		}
		if err := eng.Ingest(&rdf.Version{ID: id, Graph: g}); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// checkParity recomputes every parity-sampled read that succeeded and
// compares scores and order bitwise. It returns the number checked and one
// problem per mismatch.
func checkParity(s *Schedule, lists [][]*Op, results [][]*outcome) (int, []string) {
	refs := newRefEngines(s)
	checked := 0
	var problems []string
	for li, ops := range lists {
		for i, op := range ops {
			o := results[li][i]
			if !op.Parity || o == nil || o.Err != nil || o.Status != 200 {
				continue
			}
			eng, err := refs.engine(op.Dataset, op.Older, op.Newer)
			if err != nil {
				problems = append(problems, err.Error())
				continue
			}
			args, err := parseRead(op)
			if err != nil {
				problems = append(problems, err.Error())
				continue
			}
			recs, notes, err := args.onEngine(eng, op)
			if err != nil {
				problems = append(problems, fmt.Sprintf("reference %s %s %s..%s: %v", op.Kind, op.Dataset, op.Older, op.Newer, err))
				continue
			}
			checked++
			if !sameOutputs(o, &outcome{Recs: recs, Notes: notes}) {
				problems = append(problems, fmt.Sprintf("parity: %s %s %s..%s served %v%v, reference %v%v",
					op.Kind, op.Dataset, op.Older, op.Newer, o.Recs, o.Notes, recs, notes))
			}
		}
	}
	return checked, problems
}

// subscribersOf lists every (dataset, user) the ops subscribe, in order.
func subscribersOf(lists ...[]*Op) [][2]string {
	seen := make(map[[2]string]bool)
	var out [][2]string
	for _, ops := range lists {
		for _, op := range ops {
			k := [2]string{op.Dataset, op.User}
			if op.Kind == Subscribe && !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// drain polls every user the schedule subscribed until its feed is empty,
// through the same checks as the timed polls. A user whose subscribe op
// never ran, or who unsubscribed before anything reached them, has no feed
// and answers 404.
func drain(h *httpExec, s *Schedule) error {
	for _, k := range subscribersOf(s.Setup, s.Open, s.Closed) {
		for {
			op := &Op{Kind: Poll, Dataset: k[0], User: k[1], K: 500}
			o := h.exec(0, op)
			if o.Err != nil {
				return fmt.Errorf("drain: %w", o.Err)
			}
			if o.Status != 200 || len(o.Entries) == 0 {
				break
			}
		}
	}
	return nil
}
