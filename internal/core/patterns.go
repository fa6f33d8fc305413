package core

import (
	"fmt"
	"sort"

	"blackswan/internal/rdf"
)

// TermRef is one position of a triple pattern: either a constant term or a
// named variable (Section 2.2: "any of the subject, property or object can
// be bound to a variable").
type TermRef struct {
	Const rdf.ID
	Var   string
}

// C makes a constant term reference.
func C(id rdf.ID) TermRef { return TermRef{Const: id} }

// V makes a variable term reference.
func V(name string) TermRef { return TermRef{Var: name} }

// Bound reports whether the reference is a constant.
func (t TermRef) Bound() bool { return t.Const != rdf.NoID }

// TriplePattern is a simple triple query pattern (s, p, o) with any subset
// of positions bound — the left table of the paper's Figure 2.
type TriplePattern struct {
	S, P, O TermRef
}

// Pat builds a pattern.
func Pat(s, p, o TermRef) TriplePattern { return TriplePattern{S: s, P: p, O: o} }

// Class returns the pattern class p1..p8 of Figure 2:
//
//	p1 (s,p,o)   p2 (?s,p,o)   p3 (s,?p,o)   p4 (s,p,?o)
//	p5 (?s,?p,o) p6 (s,?p,?o)  p7 (?s,p,?o)  p8 (?s,?p,?o)
func (tp TriplePattern) Class() int {
	switch {
	case tp.S.Bound() && tp.P.Bound() && tp.O.Bound():
		return 1
	case !tp.S.Bound() && tp.P.Bound() && tp.O.Bound():
		return 2
	case tp.S.Bound() && !tp.P.Bound() && tp.O.Bound():
		return 3
	case tp.S.Bound() && tp.P.Bound() && !tp.O.Bound():
		return 4
	case !tp.S.Bound() && !tp.P.Bound() && tp.O.Bound():
		return 5
	case tp.S.Bound() && !tp.P.Bound() && !tp.O.Bound():
		return 6
	case !tp.S.Bound() && tp.P.Bound() && !tp.O.Bound():
		return 7
	default:
		return 8
	}
}

// JoinClass names the join patterns of Figure 2 (right table): A joins two
// subjects, B joins two objects, C joins the object of one pattern with the
// subject of the other. The remaining equality predicates (s=p′, o=p′, …)
// belong to RDF/S reasoning and are not exercised by the benchmark.
type JoinClass byte

const (
	JoinA JoinClass = 'A'
	JoinB JoinClass = 'B'
	JoinC JoinClass = 'C'
)

// Joins classifies the join predicates implied by shared variables between
// two patterns, sorted for determinism.
func Joins(a, b TriplePattern) []JoinClass {
	var out []JoinClass
	shared := func(x, y TermRef) bool {
		return !x.Bound() && !y.Bound() && x.Var != "" && x.Var == y.Var
	}
	if shared(a.S, b.S) {
		out = append(out, JoinA)
	}
	if shared(a.O, b.O) {
		out = append(out, JoinB)
	}
	if shared(a.O, b.S) || shared(a.S, b.O) {
		out = append(out, JoinC)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Coverage is one row of the paper's Table 2: which triple-pattern classes
// and join-pattern classes a query exercises.
type Coverage struct {
	Query    QueryID
	Patterns []int
	Joins    []JoinClass
}

// PatternsOf returns the triple-pattern graph of each benchmark query, per
// the graph interpretations of Figures 3 and 4. The patterns determine the
// Table 2 coverage; filters (o != Text, HAVING, aggregation) are not part of
// the pattern space.
func PatternsOf(id QueryID, c Constants) []TriplePattern {
	switch id {
	case Q1:
		return []TriplePattern{Pat(V("s"), C(c.Type), V("o"))}
	case Q2, Q3:
		return []TriplePattern{
			Pat(V("s"), C(c.Type), C(c.Text)),
			Pat(V("s"), V("p"), V("o")),
		}
	case Q4:
		return []TriplePattern{
			Pat(V("s"), C(c.Type), C(c.Text)),
			Pat(V("s"), V("p"), V("o")),
			Pat(V("s"), C(c.Language), C(c.French)),
		}
	case Q5:
		return []TriplePattern{
			Pat(V("s"), C(c.Origin), C(c.DLC)),
			Pat(V("s"), C(c.Records), V("x")),
			Pat(V("x"), C(c.Type), V("t")),
		}
	case Q6:
		return []TriplePattern{
			Pat(V("s"), C(c.Type), C(c.Text)),
			Pat(V("r"), C(c.Records), V("s")),
			Pat(V("s"), V("p"), V("o")),
		}
	case Q7:
		return []TriplePattern{
			Pat(V("s"), C(c.Point), C(c.End)),
			Pat(V("s"), C(c.Encoding), V("e")),
			Pat(V("s"), C(c.Type), V("t")),
		}
	case Q8:
		return []TriplePattern{
			Pat(C(c.Conferences), V("p"), V("o")),
			Pat(V("s"), V("p2"), V("o")),
		}
	default:
		panic(fmt.Sprintf("core: no patterns for query %d", id))
	}
}

// CoverageOf computes one Table 2 row from a query's pattern graph.
func CoverageOf(id QueryID, c Constants) Coverage {
	pats := PatternsOf(id, c)
	classSet := map[int]bool{}
	for _, p := range pats {
		classSet[p.Class()] = true
	}
	joinSet := map[JoinClass]bool{}
	for i := 0; i < len(pats); i++ {
		for j := i + 1; j < len(pats); j++ {
			for _, jc := range Joins(pats[i], pats[j]) {
				joinSet[jc] = true
			}
		}
	}
	cov := Coverage{Query: id}
	for cl := 1; cl <= 8; cl++ {
		if classSet[cl] {
			cov.Patterns = append(cov.Patterns, cl)
		}
	}
	for _, jc := range []JoinClass{JoinA, JoinB, JoinC} {
		if joinSet[jc] {
			cov.Joins = append(cov.Joins, jc)
		}
	}
	return cov
}

// Table2 computes the coverage of the whole benchmark — the paper's Table 2.
func Table2(c Constants) []Coverage {
	out := make([]Coverage, 0, 8)
	for id := Q1; id <= Q8; id++ {
		out = append(out, CoverageOf(id, c))
	}
	return out
}
