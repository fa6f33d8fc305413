// Quickstart: build a small RDF graph, load it into both storage schemes on
// the column-store engine, run a benchmark query and a custom pattern query
// compiled from text, and print decoded results.
package main

import (
	"context"
	"fmt"
	"log"

	"blackswan/internal/bgp"
	"blackswan/internal/colstore"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/simio"
)

func main() {
	// 1. Build a graph. Terms are interned into a dictionary; storage and
	// queries operate on integer identifiers.
	g := rdf.NewGraph()
	iri, lit := rdf.NewIRI, rdf.NewLiteral
	g.Add(iri("book/moby-dick"), iri("type"), iri("Text"))
	g.Add(iri("book/moby-dick"), iri("language"), iri("lang/eng"))
	g.Add(iri("book/moby-dick"), iri("title"), lit("Moby-Dick"))
	g.Add(iri("book/candide"), iri("type"), iri("Text"))
	g.Add(iri("book/candide"), iri("language"), iri("lang/fre"))
	g.Add(iri("book/candide"), iri("title"), lit("Candide"))
	g.Add(iri("cd/goldberg"), iri("type"), iri("Audio"))
	g.Add(iri("cd/goldberg"), iri("title"), lit("Goldberg Variations"))
	// The paper's fixed vocabulary (every benchmark query binds these).
	g.Add(iri("book/candide"), iri("origin"), iri("DLC"))
	g.Add(iri("book/moby-dick"), iri("records"), iri("cd/goldberg"))
	g.Add(iri("book/moby-dick"), iri("Point"), lit("end"))
	g.Add(iri("book/moby-dick"), iri("Encoding"), lit("utf-8"))
	g.Add(iri("conferences"), iri("topic"), lit("databases"))
	g.Normalize()

	d := g.Dict
	consts := core.Constants{
		Type: d.InternIRI("type"), Records: d.InternIRI("records"),
		Origin: d.InternIRI("origin"), Language: d.InternIRI("language"),
		Point: d.InternIRI("Point"), Encoding: d.InternIRI("Encoding"),
		Text: d.InternIRI("Text"), DLC: d.InternIRI("DLC"),
		French: d.InternIRI("lang/fre"), End: d.InternLiteral("end"),
		Conferences: d.InternIRI("conferences"),
	}
	interesting := []rdf.ID{consts.Type, consts.Records, consts.Origin,
		consts.Language, consts.Point, consts.Encoding, d.InternIRI("title")}
	cat, err := core.CatalogFromGraph(g, consts, interesting)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Load both schemes on simulated machine B.
	store := func() *simio.Store {
		return simio.NewStore(simio.Config{Machine: simio.MachineB(), PoolBytes: 1 << 30})
	}
	triple, err := core.LoadColTriple(colstore.NewEngine(store()), g, cat, rdf.PSO)
	if err != nil {
		log.Fatal(err)
	}
	vert, err := core.LoadColVert(colstore.NewEngine(store()), g, cat)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Benchmark query q1: instance counts per class.
	for _, db := range []core.Database{triple, vert} {
		res, err := db.Run(core.Query{ID: core.Q1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("q1 on %s:\n", db.Label())
		for i := 0; i < res.Len(); i++ {
			row := res.Row(i)
			fmt.Printf("  %-10s %d\n", d.Term(rdf.ID(row[0])).Value, row[1])
		}
	}

	// 4. A custom pattern query, compiled from text into the same kind of
	// plan the benchmark queries run as: French texts and their titles.
	bq, err := bgp.CompileText(`SELECT ?b ?t WHERE { ?b <type> <Text> . ?b <language> <lang/fre> . ?b <title> ?t }`, d, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, vars, _, err := bq.Execute(context.Background(), triple, core.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("French texts (vars %v):\n", vars)
	for i := 0; i < res.Len(); i++ {
		row := res.Row(i)
		fmt.Printf("  %s — %q\n", d.Term(rdf.ID(row[0])).Value, d.Term(rdf.ID(row[1])).Value)
	}
}
