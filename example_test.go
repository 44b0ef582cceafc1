package evorec_test

import (
	"fmt"
	"log"

	"evorec"
)

// ExampleNewEngine demonstrates the full processing model: ingest an
// evolving dataset, recommend measures for a user, and read the
// transparency trail.
func ExampleNewEngine() {
	versions, focuses, err := evorec.GenerateVersions(
		evorec.SmallKB(), evorec.EvolveConfig{Ops: 80, Locality: 0.85}, 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	eng := evorec.NewEngine(evorec.EngineConfig{})
	if err := eng.IngestAll(versions); err != nil {
		log.Fatal(err)
	}
	user := evorec.NewProfile("alice")
	user.SetInterest(focuses[0], 1)

	recs, err := eng.Recommend(user, evorec.Request{OlderID: "v1", NewerID: "v2", K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recommendations:", len(recs))
	// Output:
	// recommendations: 2
}

// ExampleComputeDelta shows the low-level delta between two versions.
func ExampleComputeDelta() {
	older := evorec.NewGraph()
	newer := evorec.NewGraph()
	c := evorec.SchemaIRI("Person")
	older.Add(evorec.T(c, evorec.RDFType, evorec.RDFSClass))
	newer.Add(evorec.T(c, evorec.RDFType, evorec.RDFSClass))
	newer.Add(evorec.T(evorec.ResourceIRI("alice"), evorec.RDFType, c))

	d := evorec.ComputeDelta(older, newer)
	fmt.Printf("added=%d deleted=%d\n", len(d.Added), len(d.Deleted))
	// Output:
	// added=1 deleted=0
}

// ExampleRunQuery evaluates a basic graph pattern against a graph.
func ExampleRunQuery() {
	g := evorec.NewGraph()
	person := evorec.SchemaIRI("Person")
	g.Add(evorec.T(evorec.ResourceIRI("alice"), evorec.RDFType, person))
	g.Add(evorec.T(evorec.ResourceIRI("bob"), evorec.RDFType, person))

	res, err := evorec.RunQuery(g, &evorec.Query{
		Patterns: []evorec.QueryPattern{
			{S: evorec.Var("x"), P: evorec.Const(evorec.RDFType), O: evorec.Const(person)},
		},
		Select:  []string{"x"},
		OrderBy: "x",
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0].Local())
	}
	// Output:
	// alice
	// bob
}

// ExampleItemIndex_TopK ranks evolution measures by relatedness to a user.
func ExampleItemIndex_TopK() {
	versions, focuses, err := evorec.GenerateVersions(
		evorec.SmallKB(), evorec.EvolveConfig{Ops: 80, Locality: 0.9}, 1, 7)
	if err != nil {
		log.Fatal(err)
	}
	v1, _ := versions.Get("v1")
	v2, _ := versions.Get("v2")
	ctx := evorec.NewMeasureContext(v1, v2)
	items := evorec.BuildItems(ctx, evorec.NewMeasureRegistry())

	u := evorec.NewProfile("u")
	u.SetInterest(focuses[0], 1)
	top := evorec.NewItemIndex(items).TopK(u, 2)
	fmt.Println(len(top), "measures recommended")
	// Output:
	// 2 measures recommended
}

// ExampleKAnonymize publishes a k-anonymous view of a profile pool.
func ExampleKAnonymize() {
	pool := []*evorec.Profile{
		evorec.NewProfile("u1"), evorec.NewProfile("u2"),
		evorec.NewProfile("u3"), evorec.NewProfile("u4"),
	}
	for i, p := range pool {
		p.SetInterest(evorec.SchemaIRI(fmt.Sprintf("C%d", i%2)), 1)
	}
	anon, groups, err := evorec.KAnonymize(pool, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %d profiles in %d groups\n", len(anon), len(groups))
	// Output:
	// published 4 profiles in 2 groups
}
