package bgp_test

import (
	"fmt"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// This file holds the property-test harness of the SPARQL-ward language
// growth: for each new construct — OPTIONAL, numeric range FILTER, ORDER
// BY/LIMIT — at least 200 seeded generated queries containing it must
// produce byte-identical results on all four storage schemes AND match the
// independent bgp.EvalBGP oracle. The acceptance bar of the language: the
// storage-scheme comparison stays trustworthy as the language grows.

// hasOptional, hasRange and hasOrder classify a generated query.
func hasOptional(q *bgp.Query) bool {
	for _, e := range q.Where {
		if _, ok := e.(*bgp.Optional); ok {
			return true
		}
	}
	return false
}

func hasRange(q *bgp.Query) bool {
	for _, e := range q.Where {
		switch x := e.(type) {
		case bgp.RangeFilter:
			return true
		case *bgp.Optional:
			for _, oe := range x.Where {
				if _, ok := oe.(bgp.RangeFilter); ok {
					return true
				}
			}
		}
	}
	return false
}

func hasOrder(q *bgp.Query) bool { return len(q.OrderBy) > 0 }

// checkQuery compiles and runs q on every scheme and against the oracle.
// Ordered results compare in exact row order (the total-order guarantee);
// unordered ones as bags. It returns the reference row count.
func checkQuery(t *testing.T, f *fixture, q *bgp.Query) int {
	t.Helper()
	dict := f.ds.Graph.Dict
	compiled, err := bgp.Compile(q, dict, f.est)
	if err != nil {
		t.Fatalf("compile %q: %v", q.Text(), err)
	}
	ordered := hasOrder(q)
	var ref *rel.Rel
	for _, name := range f.names {
		got, cols, _, err := core.ExecutePlan(f.srcs[name], compiled.Root, core.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %q: %v", name, q.Text(), err)
		}
		if fmt.Sprint(cols) != fmt.Sprint(compiled.Cols) {
			t.Fatalf("%s: %q: cols %v, want %v", name, q.Text(), cols, compiled.Cols)
		}
		if ref == nil {
			ref = got
			continue
		}
		if ordered {
			// Ordered queries must agree byte-for-byte including row order:
			// the sort is a total order over one shared dictionary.
			if got.W != ref.W || fmt.Sprint(got.Data) != fmt.Sprint(ref.Data) {
				t.Fatalf("%s: %q: ordered result differs from %s", name, q.Text(), f.names[0])
			}
		} else if !rel.Equal(got, ref) {
			t.Fatalf("%s: %q: result differs from %s (%d vs %d rows)",
				name, q.Text(), f.names[0], got.Len(), ref.Len())
		}
	}
	oracle, vars, err := bgp.EvalBGP(q, f.ds.Graph, f.cat.Interesting)
	if err != nil {
		t.Fatalf("oracle %q: %v", q.Text(), err)
	}
	if fmt.Sprint(vars) != fmt.Sprint(compiled.Cols) {
		t.Fatalf("%q: oracle vars %v, compiled cols %v", q.Text(), vars, compiled.Cols)
	}
	if ordered {
		if fmt.Sprint(oracle.Data) != fmt.Sprint(ref.Data) {
			t.Fatalf("%q: ordered result differs from oracle (%d vs %d rows)",
				q.Text(), ref.Len(), oracle.Len())
		}
	} else if !rel.Equal(oracle, ref) {
		t.Fatalf("%q: result differs from oracle (%d vs %d rows)",
			q.Text(), ref.Len(), oracle.Len())
	}
	return ref.Len()
}

// runConstructProperty drives one construct's corpus: generate seeded
// queries with the construct forced on, keep the ones that actually
// contain it, and check each until want queries have passed.
func runConstructProperty(t *testing.T, cfg bgp.GenConfig, has func(*bgp.Query) bool, want int) (checked, nonEmpty int) {
	t.Helper()
	f := loadFixture(t)
	gen := bgp.NewGenerator(f.ds.Graph, cfg)
	const budget = 8192 // generation attempts, not executions
	for i := 0; i < budget && checked < want; i++ {
		q, _ := gen.Query(i)
		if !has(q) {
			continue
		}
		if n := checkQuery(t, f, q); n > 0 {
			nonEmpty++
		}
		checked++
	}
	if checked < want {
		t.Fatalf("only %d/%d queries with the construct in %d attempts", checked, want, budget)
	}
	if nonEmpty == 0 {
		t.Error("every query returned empty — the property is vacuous")
	}
	return checked, nonEmpty
}

// constructCorpusSize is the per-construct acceptance bar.
const constructCorpusSize = 200

// TestPropertyOptional: ≥200 generated OPTIONAL queries agree across all
// four schemes and with the oracle, and the corpus actually exercises the
// outer join (some results carry NULLs).
func TestPropertyOptional(t *testing.T) {
	f := loadFixture(t)
	gen := bgp.NewGenerator(f.ds.Graph, bgp.GenConfig{Seed: 101, OptionalProb: 1})
	checked, nonEmpty, withNulls := 0, 0, 0
	for i := 0; checked < constructCorpusSize && i < 8192; i++ {
		q, _ := gen.Query(i)
		if !hasOptional(q) {
			continue
		}
		n := checkQuery(t, f, q)
		if n > 0 {
			nonEmpty++
		}
		// Re-run the oracle to count NULL-bearing rows (the unmatched-row
		// path of the left join).
		res, _, err := bgp.EvalBGP(q, f.ds.Graph, f.cat.Interesting)
		if err != nil {
			t.Fatal(err)
		}
		null := false
		for _, v := range res.Data {
			if v == uint64(rdf.NoID) {
				null = true
				break
			}
		}
		if null {
			withNulls++
		}
		checked++
	}
	if checked < constructCorpusSize {
		t.Fatalf("only %d OPTIONAL queries generated", checked)
	}
	if nonEmpty == 0 {
		t.Error("every OPTIONAL query returned empty — vacuous corpus")
	}
	if withNulls == 0 {
		t.Error("no OPTIONAL query produced an unmatched (NULL) row — the outer join path is untested")
	}
	t.Logf("optional: %d checked, %d non-empty, %d with NULL rows", checked, nonEmpty, withNulls)
}

// TestPropertyRangeFilter: ≥200 generated range-filter queries agree
// across schemes and with the oracle.
func TestPropertyRangeFilter(t *testing.T) {
	checked, nonEmpty := runConstructProperty(t,
		bgp.GenConfig{Seed: 202, RangeProb: 1, OptionalProb: -1, OrderProb: -1},
		hasRange, constructCorpusSize)
	t.Logf("range: %d checked, %d non-empty", checked, nonEmpty)
}

// TestPropertyOrderByLimit: ≥200 generated ORDER BY (± LIMIT) queries
// agree across schemes — in exact row order — and with the oracle.
func TestPropertyOrderByLimit(t *testing.T) {
	f := loadFixture(t)
	gen := bgp.NewGenerator(f.ds.Graph, bgp.GenConfig{Seed: 303, OrderProb: 1, LimitProb: 0.5})
	checked, nonEmpty, withLimit := 0, 0, 0
	for i := 0; checked < constructCorpusSize && i < 8192; i++ {
		q, _ := gen.Query(i)
		if !hasOrder(q) {
			continue
		}
		if n := checkQuery(t, f, q); n > 0 {
			nonEmpty++
		}
		if q.Limit != nil {
			withLimit++
		}
		checked++
	}
	if checked < constructCorpusSize {
		t.Fatalf("only %d ORDER BY queries generated", checked)
	}
	if nonEmpty == 0 {
		t.Error("every ORDER BY query returned empty — vacuous corpus")
	}
	if withLimit == 0 {
		t.Error("no generated query carried LIMIT")
	}
	t.Logf("orderby: %d checked, %d non-empty, %d with LIMIT", checked, nonEmpty, withLimit)
}

// TestOracleRejectsInvalid pins the oracle's error contract: queries the
// compiler rejects semantically must error in the oracle too, not
// evaluate to a silently different answer.
func TestOracleRejectsInvalid(t *testing.T) {
	f := loadFixture(t)
	for _, text := range []string{
		`SELECT ?s WHERE { ?s ?p ?o } HAVING (COUNT > 0)`,
		`SELECT * WHERE { ?s ?p ?o } GROUP BY ?s ?p ?o`,
		`SELECT ?x WHERE { ?s ?p ?o }`,
		`SELECT (COUNT AS ?n) WHERE { ?s ?p ?o }`,
	} {
		q := bgp.MustParse(text)
		if _, _, err := bgp.EvalBGP(q, f.ds.Graph, nil); err == nil {
			t.Errorf("oracle accepted %q", text)
		}
	}
}

// TestMixedConstructWorkload runs a corpus with every construct enabled at
// its default rate plus aggregation-era features (the generator's normal
// output) — the serving-shaped mixture, checked against the oracle.
func TestMixedConstructWorkload(t *testing.T) {
	f := loadFixture(t)
	gen := bgp.NewGenerator(f.ds.Graph, bgp.GenConfig{Seed: 404})
	for i := 0; i < 60; i++ {
		q, _ := gen.Query(i)
		checkQuery(t, f, q)
	}
}
