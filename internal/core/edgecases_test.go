package core

import (
	"testing"

	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rowstore"
)

// minimalGraph holds exactly one triple per special property — the smallest
// catalog-valid data set. Several queries are legitimately empty on it.
func minimalGraph(t *testing.T) (*rdf.Graph, Catalog) {
	t.Helper()
	g := rdf.NewGraph()
	d := g.Dict
	consts := Constants{
		Type:        d.InternIRI("type"),
		Records:     d.InternIRI("records"),
		Origin:      d.InternIRI("origin"),
		Language:    d.InternIRI("language"),
		Point:       d.InternIRI("Point"),
		Encoding:    d.InternIRI("Encoding"),
		Text:        d.InternIRI("Text"),
		DLC:         d.InternIRI("DLC"),
		French:      d.InternIRI("fre"),
		End:         d.Intern(rdf.NewLiteral("end")),
		Conferences: d.InternIRI("conferences"),
	}
	s1 := d.InternIRI("s1")
	s2 := d.InternIRI("s2")
	other := d.InternIRI("Other")
	eng := d.InternIRI("eng")
	org := d.InternIRI("org")
	lit := d.Intern(rdf.NewLiteral("enc"))
	start := d.Intern(rdf.NewLiteral("start"))
	// Deliberately: no Text-typed subject, no French speaker, no DLC
	// origin, no "end" point, and conferences shares no objects.
	g.AddIDs(s1, consts.Type, other)
	g.AddIDs(s1, consts.Records, s2)
	g.AddIDs(s2, consts.Type, other)
	g.AddIDs(s1, consts.Origin, org)
	g.AddIDs(s1, consts.Language, eng)
	g.AddIDs(s1, consts.Point, start)
	g.AddIDs(s1, consts.Encoding, lit)
	g.AddIDs(consts.Conferences, consts.Encoding, d.Intern(rdf.NewLiteral("unshared")))
	g.Normalize()

	interesting := []rdf.ID{consts.Type, consts.Records, consts.Origin,
		consts.Language, consts.Point, consts.Encoding}
	cat, err := CatalogFromGraph(g, consts, interesting)
	if err != nil {
		t.Fatal(err)
	}
	return g, cat
}

// TestEmptySelectionsAcrossSchemes checks that queries whose selections
// match nothing return empty (not erroneous) results on every scheme, with
// identical shapes.
func TestEmptySelectionsAcrossSchemes(t *testing.T) {
	g, cat := minimalGraph(t)
	var dbs []Database
	{
		db, err := LoadRowTriple(rowstore.NewEngine(newStore()), g, cat, rdf.PSO, rdf.AllOrders())
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	{
		db, err := LoadRowVert(rowstore.NewEngine(newStore()), g, cat)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	{
		db, err := LoadColTriple(colstore.NewEngine(newStore()), g, cat, rdf.SPO)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	{
		db, err := LoadColVert(colstore.NewEngine(newStore()), g, cat)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	// No Text subjects → q2/q3/q4 empty. No DLC → q5 empty. No "end" →
	// q7 empty. No shared objects → q8 empty. q6's union is empty too.
	empty := []Query{
		{ID: Q2}, {ID: Q2, Star: true}, {ID: Q3}, {ID: Q4},
		{ID: Q5}, {ID: Q6}, {ID: Q7}, {ID: Q8},
	}
	for _, db := range dbs {
		for _, q := range empty {
			res, err := db.Run(q)
			if err != nil {
				t.Fatalf("%s %v: %v", db.Label(), q, err)
			}
			if res.Len() != 0 {
				t.Errorf("%s %v: expected empty, got %d rows", db.Label(), q, res.Len())
			}
		}
		// q1 still returns the class histogram.
		res, err := db.Run(Query{ID: Q1})
		if err != nil {
			t.Fatalf("%s q1: %v", db.Label(), err)
		}
		if res.Len() != 1 || res.Row(0)[1] != 2 {
			t.Errorf("%s q1 = %v, want one class with count 2", db.Label(), res)
		}
	}
}

// TestLoadRejectsMissingProperty ensures loaders fail loudly when the
// catalog references a property absent from the data.
func TestLoadRejectsMissingProperty(t *testing.T) {
	g, cat := minimalGraph(t)
	bad := cat
	bad.AllProps = append(append([]rdf.ID(nil), cat.AllProps...), g.Dict.InternIRI("ghost"))
	if _, err := LoadRowVert(rowstore.NewEngine(newStore()), g, bad); err == nil {
		t.Fatal("RowVert accepted a property with no triples")
	}
}

// TestColTripleClusterMapping checks the physical-to-logical column mapping
// for every clustering order.
func TestColTripleClusterMapping(t *testing.T) {
	g, cat := minimalGraph(t)
	for _, cl := range rdf.AllOrders() {
		db, err := LoadColTriple(colstore.NewEngine(newStore()), g, cat, cl)
		if err != nil {
			t.Fatalf("%v: %v", cl, err)
		}
		// The unbound access must return the whole graph, and a
		// subject-and-property probe exactly its triples.
		srcs := map[string]PhysicalSource{cl.String(): db}
		if rows, _ := agreeOnAll(t, srcs, g, &Access{Pattern: Pat(V("s"), V("p"), V("o"))}); rows.Len() != g.Len() {
			t.Fatalf("%v: (?s ?p ?o) = %d rows, want %d", cl, rows.Len(), g.Len())
		}
		tr := g.Triples[0]
		agreeOnAll(t, srcs, g, &Access{Pattern: Pat(C(tr.S), C(tr.P), V("o"))})
	}
}
