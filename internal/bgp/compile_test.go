package bgp_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// canon returns the relation's values after canonical row ordering.
func canon(r *rel.Rel) []uint64 {
	c := &rel.Rel{W: r.W, Data: append([]uint64(nil), r.Data...)}
	c.Sort()
	return c.Data
}

// TestPaperQueriesSubsumed is the subsumption proof: each of the twelve
// benchmark queries, re-expressed in the BGP text syntax, compiles to a
// plan whose executed result is byte-identical (after canonical ordering)
// to PlanFor's on every storage scheme.
func TestPaperQueriesSubsumed(t *testing.T) {
	f := loadFixture(t)
	dict := f.ds.Graph.Dict
	for _, q := range core.BenchmarkQueries() {
		text, err := bgp.PaperText(q, dict, f.cat.Consts)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		compiled, err := bgp.CompileText(text, dict, f.est)
		if err != nil {
			t.Fatalf("%v: compile %q: %v", q, text, err)
		}
		if len(compiled.Cols) != q.ResultWidth() {
			t.Fatalf("%v: compiled width %d, want %d", q, len(compiled.Cols), q.ResultWidth())
		}
		for _, name := range f.names {
			src := f.srcs[name]
			want, err := src.(core.Database).Run(q)
			if err != nil {
				t.Fatalf("%s %v: %v", name, q, err)
			}
			got, _, _, err := core.ExecutePlan(src, compiled.Root, core.ExecOptions{})
			if err != nil {
				t.Fatalf("%s %v: compiled plan: %v", name, q, err)
			}
			if got.W != want.W {
				t.Fatalf("%s %v: width %d, want %d", name, q, got.W, want.W)
			}
			gd, wd := canon(got), canon(want)
			if len(gd) != len(wd) {
				t.Fatalf("%s %v: %d values, want %d", name, q, len(gd), len(wd))
			}
			for i := range wd {
				if gd[i] != wd[i] {
					t.Fatalf("%s %v: value %d is %d, want %d", name, q, i, gd[i], wd[i])
				}
			}
		}
	}
}

// TestCompiledJoinOrderNoWorse validates the cost-based join ordering
// against the hand-tuned trees: under the compiler's own cost model, the
// chosen plan never scores above PlanFor's for any benchmark query.
func TestCompiledJoinOrderNoWorse(t *testing.T) {
	f := loadFixture(t)
	dict := f.ds.Graph.Dict
	for _, q := range core.BenchmarkQueries() {
		hand, err := core.PlanFor(q, f.cat.Consts)
		if err != nil {
			t.Fatal(err)
		}
		_, handCost, err := bgp.Estimate(hand.Root, f.est)
		if err != nil {
			t.Fatal(err)
		}
		text, err := bgp.PaperText(q, dict, f.cat.Consts)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := bgp.CompileText(text, dict, f.est)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if compiled.Cost > handCost*1.000001 {
			t.Errorf("%v: compiled cost %.1f above hand-tuned %.1f (order: %v)",
				q, compiled.Cost, handCost, compiled.Order)
		}
	}
}

// TestJoinOrderPicksSelectiveFirst asserts the greedy ordering on q5: the
// highly selective origin=DLC pattern must join the records pattern before
// the per-subject type pattern enters.
func TestJoinOrderPicksSelectiveFirst(t *testing.T) {
	f := loadFixture(t)
	dict := f.ds.Graph.Dict
	text, err := bgp.PaperText(core.Query{ID: core.Q5}, dict, f.cat.Consts)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := bgp.CompileText(text, dict, f.est)
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled.Order) != 2 {
		t.Fatalf("q5 joins = %v", compiled.Order)
	}
	first := compiled.Order[0]
	if !strings.Contains(first, "ON s") {
		t.Errorf("q5 first join should be the subject-subject join, got %q", first)
	}
	if !strings.Contains(first, f.ds.Graph.Dict.Term(f.cat.Consts.Origin).String()) {
		t.Errorf("q5 first join should involve the origin pattern, got %q", first)
	}
}

// TestRandomBGPsCrossScheme is the property-based safety net: seeded
// random queries from the generator execute byte-identically on all four
// schemes, and pure SELECT * conjunctive queries also agree with the
// independent EvalBGP oracle.
func TestRandomBGPsCrossScheme(t *testing.T) {
	f := loadFixture(t)
	dict := f.ds.Graph.Dict
	gen := bgp.NewGenerator(f.ds.Graph, bgp.GenConfig{Seed: 11})
	nonEmpty := 0
	for i := 0; i < 18; i++ {
		q, shape := gen.Query(i)
		compiled, err := bgp.Compile(q, dict, f.est)
		if err != nil {
			t.Fatalf("query %d (%v) %q: %v", i, shape, q.Text(), err)
		}
		ref, _, _, err := core.ExecutePlan(f.srcs[f.names[0]], compiled.Root, core.ExecOptions{})
		if err != nil {
			t.Fatalf("query %d on %s: %v", i, f.names[0], err)
		}
		if ref.Len() > 0 {
			nonEmpty++
		}
		refData := canon(ref)
		for _, name := range f.names[1:] {
			got, _, _, err := core.ExecutePlan(f.srcs[name], compiled.Root, core.ExecOptions{})
			if err != nil {
				t.Fatalf("query %d on %s: %v", i, name, err)
			}
			if got.W != ref.W {
				t.Fatalf("query %d on %s: width %d, want %d", i, name, got.W, ref.W)
			}
			gd := canon(got)
			if len(gd) != len(refData) {
				t.Fatalf("query %d (%v) on %s: %d values, reference %d\n%s",
					i, shape, name, len(gd), len(refData), q.Text())
			}
			for k := range refData {
				if gd[k] != refData[k] {
					t.Fatalf("query %d on %s diverges at value %d", i, name, k)
				}
			}
		}
		// Every generated query — including OPTIONAL, range-filter and
		// ORDER BY shapes — must match the full-language oracle.
		oracle, vars, err := bgp.EvalBGP(q, core.GraphSource{G: f.ds.Graph}, dict, f.cat.Interesting)
		if err != nil {
			t.Fatalf("query %d (%v) oracle: %v\n%s", i, shape, err, q.Text())
		}
		if fmt.Sprint(vars) != fmt.Sprint(compiled.Cols) {
			t.Fatalf("query %d: oracle vars %v, compiled cols %v", i, vars, compiled.Cols)
		}
		if len(q.OrderBy) > 0 {
			if fmt.Sprint(oracle.Data) != fmt.Sprint(ref.Data) {
				t.Fatalf("query %d (%v): ordered result differs from oracle\n%s", i, shape, q.Text())
			}
		} else if !rel.Equal(oracle, ref) {
			t.Fatalf("query %d (%v): compiled result (%d rows) differs from EvalBGP oracle (%d rows)\n%s",
				i, shape, ref.Len(), oracle.Len(), q.Text())
		}
	}
	if nonEmpty == 0 {
		t.Error("every generated query returned empty — workload is trivial")
	}
}

// resolvePatterns maps a query's textual patterns to core patterns.
func resolvePatterns(t *testing.T, q *bgp.Query, dict rdf.Dict) []core.TriplePattern {
	t.Helper()
	ref := func(tm bgp.Term) core.TermRef {
		if tm.IsVar() {
			return core.V(tm.Var)
		}
		id, ok := dict.Lookup(rdf.Term{Value: tm.Value, Kind: tm.Kind})
		if !ok {
			t.Fatalf("term %s not in dictionary", tm)
		}
		return core.C(id)
	}
	var out []core.TriplePattern
	for _, p := range q.Patterns() {
		out = append(out, core.Pat(ref(p.S), ref(p.P), ref(p.O)))
	}
	return out
}

// cyclicFixture is a tiny hand-built graph with a records triangle
// s1→s2→s3→s1, to exercise the cyclic-BGP path (multi-variable merges
// compiled into a join plus residual column-equality filters) with a
// non-empty result.
func cyclicFixture(t *testing.T) (*rdf.Graph, core.Catalog) {
	t.Helper()
	g := rdf.NewGraph()
	d := g.Dict
	consts := core.Constants{
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
	s := make([]rdf.ID, 4)
	for i := range s {
		s[i] = d.InternIRI(fmt.Sprintf("s%d", i+1))
	}
	// The triangle, plus a stray records edge that must not survive the
	// cycle (s1→s4 closes no triangle).
	g.AddIDs(s[0], consts.Records, s[1])
	g.AddIDs(s[1], consts.Records, s[2])
	g.AddIDs(s[2], consts.Records, s[0])
	g.AddIDs(s[0], consts.Records, s[3])
	// Enough vocabulary coverage for catalog validation.
	g.AddIDs(s[0], consts.Type, consts.Text)
	g.AddIDs(s[1], consts.Language, consts.French)
	g.AddIDs(s[2], consts.Origin, consts.DLC)
	g.AddIDs(s[3], consts.Point, consts.End)
	g.AddIDs(s[3], consts.Encoding, d.Intern(rdf.NewLiteral("enc")))
	g.AddIDs(consts.Conferences, consts.Type, consts.Text)
	g.Normalize()
	interesting := []rdf.ID{consts.Type, consts.Records, consts.Origin,
		consts.Language, consts.Point, consts.Encoding}
	cat, err := core.CatalogFromGraph(g, consts, interesting)
	if err != nil {
		t.Fatal(err)
	}
	return g, cat
}

// TestCyclicBGP compiles a triangle query — the case where a pattern
// shares two variables with the rest of the join tree — and checks every
// scheme returns exactly the triangle, matching the EvalBGP oracle.
func TestCyclicBGP(t *testing.T) {
	g, cat := cyclicFixture(t)
	srcs, names, err := loadSchemes(g, cat)
	if err != nil {
		t.Fatal(err)
	}
	est := bgp.NewEstimator(g, cat.Interesting)
	q := bgp.MustParse(
		`SELECT ?a ?b ?c WHERE { ?a <records> ?b . ?b <records> ?c . ?c <records> ?a }`)
	compiled, err := bgp.Compile(q, g.Dict, est)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := core.EvalBGP(core.GraphSource{G: g}, resolvePatterns(t, q, g.Dict))
	oracleProj := oracle.Project(0, 1, 2)
	if oracleProj.Len() != 3 {
		t.Fatalf("oracle found %d triangle rows, want 3 (rotations)", oracleProj.Len())
	}
	for _, name := range names {
		got, cols, _, err := core.ExecutePlan(srcs[name], compiled.Root, core.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fmt.Sprint(cols) != "[a b c]" {
			t.Fatalf("%s: cols %v", name, cols)
		}
		if !rel.Equal(got, oracleProj) {
			t.Fatalf("%s: %d rows, oracle %d", name, got.Len(), oracleProj.Len())
		}
	}
}

// TestCompileErrors covers the compiler's rejection paths.
func TestCompileErrors(t *testing.T) {
	f := loadFixture(t)
	dict := f.ds.Graph.Dict
	cases := []struct {
		name, text, want string
	}{
		{"disconnected", `SELECT * WHERE { ?a <barton/type> ?b . ?c <barton/type> ?d }`, "disconnected"},
		{"count without group", `SELECT (COUNT AS ?n) WHERE { ?s <barton/type> ?o }`, "COUNT requires GROUP BY"},
		{"too many keys", `SELECT * WHERE { ?s ?p ?o } GROUP BY ?s ?p ?o`, "at most 2"},
		{"group key unbound", `SELECT * WHERE { ?s <barton/type> ?o } GROUP BY ?x`, "not bound"},
		{"select unbound", `SELECT ?x WHERE { ?s <barton/type> ?o }`, "not bound"},
		{"filter unbound", `SELECT * WHERE { ?s <barton/type> ?o . FILTER (?x != <barton/Text>) }`, "not bound"},
		{"no variables", `SELECT * WHERE { <barton/type> <barton/type> <barton/Text> }`, "binds no variable"},
		{"union mismatch", `SELECT * WHERE { { ?a <barton/type> ?t } UNION { ?b <barton/language> ?l } }`, "different columns"},
		{"duplicate output", `SELECT ?s (?o AS ?s) WHERE { ?s <barton/type> ?o }`, "duplicate output"},
		{"having without group", `SELECT ?s WHERE { ?s <barton/type> ?o } HAVING (COUNT > 1)`, "HAVING requires"},
		{"count variable collision", `SELECT ?count (COUNT AS ?n) WHERE { ?s ?count ?o } GROUP BY ?count`, "collides"},
	}
	for _, tc := range cases {
		_, err := bgp.CompileText(tc.text, dict, f.est)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}

	_, err := bgp.CompileText(`SELECT * WHERE { ?s <no/such/iri> ?o }`, dict, f.est)
	var ute *bgp.UnknownTermError
	if !errors.As(err, &ute) {
		t.Errorf("unknown term: got %v, want UnknownTermError", err)
	}
}

// TestCountColumnsTracked asserts Compiled.Counts marks aggregate columns
// both at the top level and when surfaced through union branches, so
// consumers never decode a count as a dictionary identifier.
func TestCountColumnsTracked(t *testing.T) {
	f := loadFixture(t)
	dict := f.ds.Graph.Dict
	top, err := bgp.CompileText(
		`SELECT ?o (COUNT AS ?n) WHERE { ?s <barton/type> ?o } GROUP BY ?o`, dict, f.est)
	if err != nil {
		t.Fatal(err)
	}
	if !top.Counts["n"] || top.Counts["o"] {
		t.Fatalf("top-level Counts = %v", top.Counts)
	}
	viaUnion, err := bgp.CompileText(
		`SELECT * WHERE { { SELECT ?o (COUNT AS ?n) WHERE { ?s <barton/type> ?o } GROUP BY ?o } UNION { SELECT ?o (COUNT AS ?n) WHERE { ?s <barton/language> ?o } GROUP BY ?o } }`,
		dict, f.est)
	if err != nil {
		t.Fatal(err)
	}
	if !viaUnion.Counts["n"] || viaUnion.Counts["o"] {
		t.Fatalf("union Counts = %v (cols %v)", viaUnion.Counts, viaUnion.Cols)
	}
	// A count computed only in a later branch must be marked too.
	laterBranch, err := bgp.CompileText(
		`SELECT * WHERE { { SELECT ?o ?n WHERE { ?o <barton/records> ?n } } UNION ALL { SELECT ?o (COUNT AS ?n) WHERE { ?s <barton/type> ?o } GROUP BY ?o } }`,
		dict, f.est)
	if err != nil {
		t.Fatal(err)
	}
	if !laterBranch.Counts["n"] {
		t.Fatalf("later-branch Counts = %v", laterBranch.Counts)
	}
}

// TestCompileNilEstimator asserts compilation works without statistics
// (the bind-count fallback) and still executes correctly.
func TestCompileNilEstimator(t *testing.T) {
	f := loadFixture(t)
	dict := f.ds.Graph.Dict
	text, err := bgp.PaperText(core.Query{ID: core.Q7}, dict, f.cat.Consts)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := bgp.CompileText(text, dict, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.srcs["colvert"].(core.Database).Run(core.Query{ID: core.Q7})
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := core.ExecutePlan(f.srcs["colvert"], compiled.Root, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(got, want) {
		t.Fatalf("nil-estimator q7: %d rows, want %d", got.Len(), want.Len())
	}
}

// TestCompileLicensesProbe pins the one place a join gets its license: the
// compiler writes Join.ProbeMax = the sibling's exact cardinality over the
// break-even constant where a bare property-bound access is joined on its
// subject, and nothing elsewhere or without statistics; an anchored star so
// licensed probes its sibling on the three schemes that seek a subject and
// hashes on the column triple-store.
func TestCompileLicensesProbe(t *testing.T) {
	f := loadFixture(t)
	g, dict := f.ds.Graph, f.ds.Graph.Dict
	typ := f.cat.Consts.Type
	type key struct{ a, b rdf.ID }
	count, typed := map[key]int{}, map[rdf.ID]bool{}
	for _, tr := range g.Triples {
		count[key{tr.P, tr.O}]++
		typed[tr.S] = typed[tr.S] || tr.P == typ
	}
	var anchor *rdf.Triple
	for i, tr := range g.Triples {
		if tr.P != typ && count[key{tr.P, tr.O}] == 1 && typed[tr.S] {
			anchor = &g.Triples[i]
			break
		}
	}
	if anchor == nil {
		t.Fatal("fixture holds no one-row anchor on a typed subject")
	}
	typeIRI := dict.Term(typ).String()
	star := fmt.Sprintf("SELECT ?s ?t WHERE { ?s %s %s . ?s %s ?t }", dict.Term(anchor.P), dict.Term(anchor.O), typeIRI)
	licenses := func(text string, est *bgp.Estimator) (*bgp.Compiled, []int) {
		c, err := bgp.CompileText(text, dict, est)
		if err != nil {
			t.Fatalf("compile %q: %v", text, err)
		}
		var out []int
		for _, in := range c.Nodes() {
			if j, ok := in.Node.(*core.Join); ok {
				out = append(out, j.ProbeMax)
			}
		}
		return c, out
	}
	want := rdf.ComputeStats(g).PropertyCard(typ) / 1024
	if want < 1 {
		t.Fatalf("the type table's %d rows license nothing — fixture too small", rdf.ComputeStats(g).PropertyCard(typ))
	}
	compiled, got := licenses(star, f.est)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("star licensed %v, want [%d]", got, want)
	}
	if _, got := licenses(star, nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("without statistics the star is licensed %v, want [0]", got)
	}
	// Joined on its object, an access cannot be sought.
	rec := dict.Term(f.cat.Consts.Records).String()
	if _, got := licenses(fmt.Sprintf("SELECT ?a ?b WHERE { ?a %s ?y . ?b %s ?y }", rec, typeIRI), f.est); len(got) != 1 || got[0] != 0 {
		t.Errorf("an object-object join is licensed %v, want [0]", got)
	}

	oracle, _, err := bgp.EvalBGP(bgp.MustParse(star), core.GraphSource{G: g}, dict, f.cat.Interesting)
	if err != nil || oracle.Len() == 0 {
		t.Fatalf("oracle: %d rows, %v", oracle.Len(), err)
	}
	for _, name := range f.names {
		got, _, tr, err := core.ExecutePlan(f.srcs[name], compiled.Root, core.ExecOptions{Streaming: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		strategy := core.JoinIndexProbe
		if name == "coltriple" {
			strategy = core.JoinHash
		}
		if len(tr.Joins) != 1 || tr.Joins[0].Strategy != strategy || !rel.Equal(got, oracle) {
			t.Errorf("%s: joins %v (want %s), %d rows (oracle %d)", name, tr.Joins, strategy, got.Len(), oracle.Len())
		}
	}
}
