package core

import (
	"fmt"
	"math/rand"
	"testing"

	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
)

// randomFixture builds a random graph that always contains the benchmark
// vocabulary, so all twelve queries are well-defined. Unlike the datagen
// package it makes no attempt at realism — the point is adversarial
// structure: duplicate objects across properties, subjects with repeated
// language triples (bag-semantics multiplicities), conferences triples
// under several properties, self-links.
func randomFixture(t *testing.T, seed int64) (*rdf.Graph, Catalog) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
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
	props := []rdf.ID{consts.Type, consts.Records, consts.Origin, consts.Language,
		consts.Point, consts.Encoding}
	nGeneric := 4 + rng.Intn(8)
	for i := 0; i < nGeneric; i++ {
		props = append(props, d.InternIRI(fmt.Sprintf("g%d", i)))
	}
	nSubj := 20 + rng.Intn(40)
	subjects := make([]rdf.ID, nSubj)
	for i := range subjects {
		subjects[i] = d.InternIRI(fmt.Sprintf("s%d", i))
	}
	typeObjs := []rdf.ID{consts.Text, d.InternIRI("Date"), d.InternIRI("Audio")}
	langObjs := []rdf.ID{consts.French, d.InternIRI("eng")}
	origObjs := []rdf.ID{consts.DLC, d.InternIRI("org1")}
	pointObjs := []rdf.ID{consts.End, d.Intern(rdf.NewLiteral("start"))}
	sharedLits := make([]rdf.ID, 6)
	for i := range sharedLits {
		sharedLits[i] = d.Intern(rdf.NewLiteral(fmt.Sprintf("v%d", i)))
	}

	n := 200 + rng.Intn(400)
	for i := 0; i < n; i++ {
		s := subjects[rng.Intn(nSubj)]
		p := props[rng.Intn(len(props))]
		var o rdf.ID
		switch p {
		case consts.Type:
			o = typeObjs[rng.Intn(len(typeObjs))]
		case consts.Language:
			o = langObjs[rng.Intn(len(langObjs))]
		case consts.Origin:
			o = origObjs[rng.Intn(len(origObjs))]
		case consts.Point:
			o = pointObjs[rng.Intn(len(pointObjs))]
		case consts.Records:
			o = subjects[rng.Intn(nSubj)] // may self-link
		default:
			if rng.Intn(3) == 0 {
				o = subjects[rng.Intn(nSubj)]
			} else {
				o = sharedLits[rng.Intn(len(sharedLits))]
			}
		}
		g.AddIDs(s, p, o)
	}
	// Conferences triples under several properties, sharing objects with
	// the rest of the data.
	for i := 0; i < 3+rng.Intn(4); i++ {
		p := props[6+rng.Intn(nGeneric)]
		g.AddIDs(consts.Conferences, p, sharedLits[rng.Intn(len(sharedLits))])
	}
	// Guarantee every special property and constant actually occurs.
	g.AddIDs(subjects[0], consts.Type, consts.Text)
	g.AddIDs(subjects[0], consts.Language, consts.French)
	g.AddIDs(subjects[0], consts.Origin, consts.DLC)
	g.AddIDs(subjects[0], consts.Records, subjects[1])
	g.AddIDs(subjects[1], consts.Type, typeObjs[1])
	g.AddIDs(subjects[0], consts.Point, consts.End)
	g.AddIDs(subjects[0], consts.Encoding, sharedLits[0])
	g.Normalize()

	interesting := append([]rdf.ID(nil), props[:6]...)
	interesting = append(interesting, props[6])
	cat, err := CatalogFromGraph(g, consts, interesting)
	if err != nil {
		t.Fatalf("seed %d: catalog: %v", seed, err)
	}
	return g, cat
}

// TestPlanExecutedByteIdentical is the refactor's safety net in its
// strictest form: for every benchmark query, the plan-executed result of
// every scheme must be byte-identical to the reference after canonical
// ordering — not merely equal as a bag, but the same []uint64, value for
// value. Runs on the crafted fixture and a sweep of random graphs.
func TestPlanExecutedByteIdentical(t *testing.T) {
	type fixture struct {
		name string
		g    *rdf.Graph
		cat  Catalog
	}
	fx := newCrafted(t)
	fixtures := []fixture{{"crafted", fx.g, fx.cat}}
	for seed := int64(0); seed < 4; seed++ {
		g, cat := randomFixture(t, 100+seed)
		fixtures = append(fixtures, fixture{fmt.Sprintf("random-%d", seed), g, cat})
	}
	canon := func(r *rel.Rel) []uint64 {
		c := &rel.Rel{W: r.W, Data: append([]uint64(nil), r.Data...)}
		c.Sort()
		return c.Data
	}
	for _, f := range fixtures {
		dbs := allDatabases(t, f.g, f.cat)
		ref := dbs[0]
		for _, q := range BenchmarkQueries() {
			t.Run(fmt.Sprintf("%s/%v", f.name, q), func(t *testing.T) {
				want, err := ref.Run(q)
				if err != nil {
					t.Fatalf("%s: %v", ref.Label(), err)
				}
				wantData := canon(want)
				for _, db := range dbs[1:] {
					got, err := db.Run(q)
					if err != nil {
						t.Fatalf("%s: %v", db.Label(), err)
					}
					if got.W != want.W {
						t.Fatalf("%s: width %d, reference %d", db.Label(), got.W, want.W)
					}
					gotData := canon(got)
					if len(gotData) != len(wantData) {
						t.Fatalf("%s: %d values, reference %d", db.Label(), len(gotData), len(wantData))
					}
					for i := range wantData {
						if gotData[i] != wantData[i] {
							t.Fatalf("%s: value %d is %d, reference %d",
								db.Label(), i, gotData[i], wantData[i])
						}
					}
				}
			})
		}
	}
}

// TestRandomGraphSchemeEquivalence is the central correctness property of
// the study's reproduction: on arbitrary data, every (engine × scheme ×
// clustering) combination returns identical results for all twelve
// benchmark queries.
func TestRandomGraphSchemeEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g, cat := randomFixture(t, seed)

		ref, err := LoadRowTriple(rowstore.NewEngine(newStore()), g, cat, rdf.SPO, rdf.AllOrders())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var others []Database
		{
			db, err := LoadRowTriple(rowstore.NewEngine(newStore()), g, cat, rdf.PSO, rdf.AllOrders())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			others = append(others, db)
		}
		{
			db, err := LoadRowVert(rowstore.NewEngine(newStore()), g, cat)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			others = append(others, db)
		}
		for _, cl := range []rdf.Order{rdf.SPO, rdf.PSO, rdf.OSP} {
			db, err := LoadColTriple(colstore.NewEngine(newStore()), g, cat, cl)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			others = append(others, db)
		}
		{
			db, err := LoadColVert(colstore.NewEngine(newStore()), g, cat)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			others = append(others, db)
		}

		for _, q := range BenchmarkQueries() {
			want, err := ref.Run(q)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, q, err)
			}
			for _, db := range others {
				got, err := db.Run(q)
				if err != nil {
					t.Fatalf("seed %d %s %v: %v", seed, db.Label(), q, err)
				}
				if !rel.Equal(got, want) {
					t.Errorf("seed %d: %s disagrees with %s on %v (%d vs %d rows)",
						seed, db.Label(), ref.Label(), q, got.Len(), want.Len())
				}
			}
		}

		// Access and join plans over every scheme must agree with the
		// same plans over the bare graph, on a mix covering joins A
		// (subject-subject), B (object-object) and C (object-subject).
		srcs := map[string]PhysicalSource{}
		for _, db := range append([]Database{ref}, others...) {
			srcs[db.Label()] = db.(PhysicalSource)
		}
		typed := &Access{Pattern: Pat(V("s"), C(cat.Consts.Type), V("t"))}
		for _, root := range []Node{
			typed,
			&Join{L: typed, R: &Access{Pattern: Pat(V("s"), C(cat.Consts.Records), V("x"))}},
			&Join{L: &Access{Pattern: Pat(V("a"), V("p"), V("o"))}, R: &Access{Pattern: Pat(V("b"), C(cat.Consts.Type), V("o"))}},
			&Join{L: &Access{Pattern: Pat(V("s"), C(cat.Consts.Records), V("x"))}, R: &Access{Pattern: Pat(V("x"), C(cat.Consts.Type), V("t"))}},
		} {
			agreeOnAll(t, srcs, g, root)
		}
	}
}
