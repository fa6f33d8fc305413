package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

func TestPatternClasses(t *testing.T) {
	s, p, o := C(1), C(2), C(3)
	vs, vp, vo := V("s"), V("p"), V("o")
	cases := []struct {
		tp   TriplePattern
		want int
	}{
		{Pat(s, p, o), 1},
		{Pat(vs, p, o), 2},
		{Pat(s, vp, o), 3},
		{Pat(s, p, vo), 4},
		{Pat(vs, vp, o), 5},
		{Pat(s, vp, vo), 6},
		{Pat(vs, p, vo), 7},
		{Pat(vs, vp, vo), 8},
	}
	for _, c := range cases {
		if got := c.tp.Class(); got != c.want {
			t.Errorf("Class(%+v) = p%d, want p%d", c.tp, got, c.want)
		}
	}
}

func TestJoinClasses(t *testing.T) {
	a := Pat(V("x"), C(1), V("y"))
	b := Pat(V("x"), C(2), V("z"))
	if js := Joins(a, b); len(js) != 1 || js[0] != JoinA {
		t.Fatalf("subject join = %v", js)
	}
	c := Pat(V("u"), C(2), V("y"))
	if js := Joins(a, c); len(js) != 1 || js[0] != JoinB {
		t.Fatalf("object join = %v", js)
	}
	d := Pat(V("y"), C(2), V("w"))
	if js := Joins(a, d); len(js) != 1 || js[0] != JoinC {
		t.Fatalf("object-subject join = %v", js)
	}
	e := Pat(V("q"), C(2), V("r"))
	if js := Joins(a, e); len(js) != 0 {
		t.Fatalf("disjoint patterns join = %v", js)
	}
}

// TestTable2MatchesPaper checks the computed coverage against the paper's
// Table 2 row by row.
func TestTable2MatchesPaper(t *testing.T) {
	consts := Constants{
		Type: 1, Records: 2, Origin: 3, Language: 4, Point: 5, Encoding: 6,
		Text: 7, DLC: 8, French: 9, End: 10, Conferences: 11,
	}
	want := map[QueryID]struct {
		pats  []int
		joins string
	}{
		Q1: {[]int{7}, ""},
		Q2: {[]int{2, 8}, "A"},
		Q3: {[]int{2, 8}, "A"},
		Q4: {[]int{2, 8}, "A"},
		Q5: {[]int{2, 7}, "AC"},
		Q6: {[]int{2, 7, 8}, "AC"},
		Q7: {[]int{2, 7}, "A"},
		Q8: {[]int{6, 8}, "B"},
	}
	for _, cov := range Table2(consts) {
		w := want[cov.Query]
		if fmt.Sprint(cov.Patterns) != fmt.Sprint(w.pats) {
			t.Errorf("q%d patterns = %v, want %v", cov.Query, cov.Patterns, w.pats)
		}
		got := ""
		for _, j := range cov.Joins {
			got += string(j)
		}
		if got != w.joins {
			t.Errorf("q%d joins = %q, want %q", cov.Query, got, w.joins)
		}
	}
}

// refPlan evaluates an Access/Join plan over the bare graph: each access a
// linear filter over the triples (a repeated variable an equality), each
// join a nested loop on the shared columns. It shares no code with the
// executor or any scan, so agreeOnAll holds every scheme to the graph.
func refPlan(g *rdf.Graph, n Node) (*rel.Rel, []string) {
	switch x := n.(type) {
	case *Access:
		refs := []TermRef{x.Pattern.S, x.Pattern.P, x.Pattern.O}
		var cols []string
		for _, r := range refs {
			if !r.Bound() && !slices.Contains(cols, r.Var) {
				cols = append(cols, r.Var)
			}
		}
		out := rel.New(len(cols))
	triples:
		for _, t := range g.Triples {
			vals := make([]uint64, len(cols))
			seen := make([]bool, len(cols))
			for i, v := range []rdf.ID{t.S, t.P, t.O} {
				if refs[i].Bound() {
					if v != refs[i].Const {
						continue triples
					}
					continue
				}
				c := slices.Index(cols, refs[i].Var)
				if seen[c] && vals[c] != uint64(v) {
					continue triples
				}
				vals[c], seen[c] = uint64(v), true
			}
			out.Append(vals...)
		}
		return out, cols
	case *Join:
		l, lc := refPlan(g, x.L)
		r, rc := refPlan(g, x.R)
		cols := slices.Clone(lc)
		for _, c := range rc {
			if !slices.Contains(lc, c) {
				cols = append(cols, c)
			}
		}
		out := rel.New(len(cols))
		for i := 0; i < l.Len(); i++ {
		rows:
			for k := 0; k < r.Len(); k++ {
				row := slices.Clone(l.Row(i))
				for ci, c := range rc {
					if li := slices.Index(lc, c); li < 0 {
						row = append(row, r.Row(k)[ci])
					} else if row[li] != r.Row(k)[ci] {
						continue rows
					}
				}
				out.Append(row...)
			}
		}
		return out, cols
	}
	panic(fmt.Sprintf("refPlan: %T", n))
}

// agreeOnAll runs root through ExecutePlan on every source, drained and
// pipelined at two rows a batch, and checks each result, in refPlan's
// column order, holds the bag of rows refPlan finds in g. It returns that
// bag.
func agreeOnAll(t *testing.T, srcs map[string]PhysicalSource, g *rdf.Graph, root Node) (*rel.Rel, []string) {
	t.Helper()
	want, wc := refPlan(g, root)
	for name, src := range srcs {
		for _, opt := range []ExecOptions{{}, {Streaming: true, BatchRows: 2}} {
			got, gc, _, err := ExecutePlan(src, root, opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opt, err)
			}
			idx := make([]int, len(wc))
			for i, c := range wc {
				idx[i] = slices.Index(gc, c)
			}
			if len(gc) != len(wc) || slices.Contains(idx, -1) {
				t.Fatalf("%s %+v: columns %v, the graph's %v", name, opt, gc, wc)
			}
			if got = got.Project(idx...); !rel.Equal(got, want) {
				t.Errorf("%s %+v: %d rows %v, the graph holds %d: %v", name, opt, got.Len(), got, want.Len(), want)
			}
		}
	}
	return want, wc
}

// TestAccessJoinOnAllSchemes runs q5's pattern graph as a plan of accesses
// and joins on every scheme: DLC-origin subjects, their records, the
// record targets' types. One solution: s1 records s3, s3 typed Date.
func TestAccessJoinOnAllSchemes(t *testing.T) {
	fx, srcs := planFixture(t)
	c, ids := fx.cat.Consts, fx.ids
	q5 := &Join{
		L: &Join{
			L: &Access{Pattern: Pat(V("s"), C(c.Origin), C(c.DLC))},
			R: &Access{Pattern: Pat(V("s"), C(c.Records), V("x"))},
		},
		R: &Access{Pattern: Pat(V("x"), C(c.Type), V("t"))},
	}
	want := rel.New(3)
	want.Append(ids["s1"], ids["s3"], ids["Date"])
	if got, cols := agreeOnAll(t, srcs, fx.g, q5); fmt.Sprint(cols) != "[s x t]" || !rel.Equal(got, want) {
		t.Errorf("q5's pattern graph over the graph: %v %v, want [s x t] %v", cols, got, want)
	}

	// Subject and property bound (pattern p4): s1's one type.
	got, _ := agreeOnAll(t, srcs, fx.g, &Access{Pattern: Pat(C(rdf.ID(ids["s1"])), C(c.Type), V("t"))})
	if got.Len() != 1 || got.Row(0)[0] != ids["Text"] {
		t.Errorf("s1's types = %v, want [Text]", got)
	}
}

// TestAccessUnboundProperty: pattern p6 (s, ?p, ?o), which on the
// vertical schemes visits every property table.
func TestAccessUnboundProperty(t *testing.T) {
	fx, srcs := planFixture(t)
	got, cols := agreeOnAll(t, srcs, fx.g, &Access{Pattern: Pat(C(rdf.ID(fx.ids["s1"])), V("p"), V("o"))})
	// s1 has: type, language, title, origin, records = 5 triples.
	if len(cols) != 2 || got.Len() != 5 {
		t.Fatalf("s1 has %d property values over %v, want 5 over [p o]", got.Len(), cols)
	}
}

// TestAccessRepeatedVariable: a variable in two positions of one pattern
// is an equality filter, with the property bound and with it unbound.
func TestAccessRepeatedVariable(t *testing.T) {
	g, cat := minimalGraph(t)
	s2, _ := g.Dict.Lookup(rdf.NewIRI("s2"))
	g.AddIDs(s2, cat.Consts.Records, s2)
	g.Normalize()
	cat, err := CatalogFromGraph(g, cat.Consts, cat.Interesting)
	if err != nil {
		t.Fatal(err)
	}
	srcs := loadFour(t, g, cat)
	if got, _ := agreeOnAll(t, srcs, g, &Access{Pattern: Pat(V("x"), C(cat.Consts.Records), V("x"))}); got.Len() != 1 || got.Row(0)[0] != uint64(s2) {
		t.Errorf("(?x records ?x) = %v, want [s2]", got)
	}
	if got, _ := agreeOnAll(t, srcs, g, &Access{Pattern: Pat(V("x"), V("p"), V("x"))}); got.Len() != 1 || got.Row(0)[1] != uint64(cat.Consts.Records) {
		t.Errorf("(?x ?p ?x) = %v, want [s2 records]", got)
	}
}

func TestTripleSQLRendersAppendix(t *testing.T) {
	for _, q := range BenchmarkQueries() {
		sql, err := TripleSQL(q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if !strings.HasPrefix(sql, "SELECT") {
			t.Errorf("%v: SQL does not start with SELECT", q)
		}
		if q.Restricted() && !strings.Contains(sql, "properties P") {
			t.Errorf("%v: restricted query lacks properties join", q)
		}
		if !q.Restricted() && strings.Contains(sql, "properties P") {
			t.Errorf("%v: unrestricted query has properties join", q)
		}
	}
	if _, err := TripleSQL(Query{ID: 42}); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestVertSQLScalesWithProperties(t *testing.T) {
	names := make([]string, 222)
	for i := range names {
		names[i] = fmt.Sprintf("prop%d", i)
	}
	sql, st, err := VertSQL(Query{ID: Q2, Star: true}, names)
	if err != nil {
		t.Fatal(err)
	}
	// "Each query contains more than two hundred unions and joins."
	if st.Unions < 200 {
		t.Fatalf("q2* unions = %d, want > 200", st.Unions)
	}
	if st.Joins < 200 {
		t.Fatalf("q2* joins = %d, want > 200", st.Joins)
	}
	if st.Bytes != len(sql) {
		t.Fatal("Bytes mismatch")
	}
	// Restricted q2 over 28 properties is far smaller.
	_, st28, err := VertSQL(Query{ID: Q2}, names[:28])
	if err != nil {
		t.Fatal(err)
	}
	if st28.Unions*4 > st.Unions {
		t.Fatalf("restricted unions %d vs full %d", st28.Unions, st.Unions)
	}
	// q8 iterates the property list twice (both phases).
	_, st8, err := VertSQL(Query{ID: Q8}, names)
	if err != nil {
		t.Fatal(err)
	}
	if st8.Tables < 2*len(names) {
		t.Fatalf("q8 tables = %d, want >= %d", st8.Tables, 2*len(names))
	}
	// Single-table queries stay simple regardless of schema size.
	_, st1, err := VertSQL(Query{ID: Q1}, names)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Unions != 0 || st1.Tables != 1 {
		t.Fatalf("q1 stats = %+v", st1)
	}
	for _, q := range BenchmarkQueries() {
		if _, _, err := VertSQL(q, names); err != nil {
			t.Errorf("VertSQL(%v): %v", q, err)
		}
	}
	if _, _, err := VertSQL(Query{ID: Q2}, nil); err == nil {
		t.Fatal("empty property list accepted")
	}
	if _, _, err := VertSQL(Query{ID: 42}, names); err == nil {
		t.Fatal("invalid query accepted")
	}
}
