package core

import (
	"fmt"
	"sort"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
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

// TripleSource is pattern-level access to a loaded storage scheme: it
// returns the (s, p, o) rows matching a simple triple pattern with the given
// positions bound (rdf.NoID means unbound). All four Database
// implementations provide it, which makes EvalBGP scheme-independent.
type TripleSource interface {
	Match(s, p, o rdf.ID) *rel.Rel
}

// GraphSource is the reference TripleSource: Match as a linear filter over
// the graph's triples — no engine, no index, no charges. The oracles read
// through it, so what they say shares no code with the scans under test.
type GraphSource struct{ G *rdf.Graph }

// Match implements TripleSource.
func (g GraphSource) Match(s, p, o rdf.ID) *rel.Rel {
	out := rel.New(3)
	for _, t := range g.G.Triples {
		if (s == rdf.NoID || t.S == s) && (p == rdf.NoID || t.P == p) && (o == rdf.NoID || t.O == o) {
			out.Append(uint64(t.S), uint64(t.P), uint64(t.O))
		}
	}
	return out
}

// EvalBGP evaluates a conjunctive basic graph pattern over any storage
// scheme, returning one row per solution with columns in order of first
// variable appearance (and that variable order as the second result).
//
// This is the general query-space API built on the Section 2.2 model; the
// twelve benchmark queries run through the declarative plan layer
// (plan.go, exec.go) instead, because they need aggregation, HAVING,
// unions and inequality filters on top of their patterns.
func EvalBGP(src TripleSource, patterns []TriplePattern) (*rel.Rel, []string) {
	if len(patterns) == 0 {
		return rel.New(1), nil
	}
	var vars []string
	varIdx := map[string]int{}
	addVar := func(name string) {
		if name == "" {
			return
		}
		if _, ok := varIdx[name]; !ok {
			varIdx[name] = len(vars)
			vars = append(vars, name)
		}
	}

	// state holds one row per partial solution over vars seen so far. A
	// nil state with ok=true means "no variables bound yet, still
	// satisfiable" (all-constant patterns act as existence filters).
	var state *rel.Rel
	ok := true
	for _, tp := range patterns {
		if !ok {
			break
		}
		rows := src.Match(tp.S.Const, tp.P.Const, tp.O.Const)
		// Positions of this pattern's variables within (s, p, o).
		type slot struct {
			name string
			col  int
		}
		var slots []slot
		for col, ref := range []TermRef{tp.S, tp.P, tp.O} {
			if !ref.Bound() && ref.Var != "" {
				slots = append(slots, slot{ref.Var, col})
			}
		}
		// Same variable twice in one pattern means an intra-pattern
		// equality filter (e.g. (?x, p, ?x)).
		filtered := rel.New(3)
		for i := 0; i < rows.Len(); i++ {
			row := rows.Row(i)
			ok := true
			seen := map[string]uint64{}
			for _, sl := range slots {
				if prev, dup := seen[sl.name]; dup && prev != row[sl.col] {
					ok = false
					break
				}
				seen[sl.name] = row[sl.col]
			}
			if ok {
				filtered.Data = append(filtered.Data, row...)
			}
		}
		rows = filtered

		if len(slots) == 0 {
			// All-constant pattern: pure existence filter.
			if rows.Len() == 0 {
				ok = false
				if state != nil {
					state.Data = state.Data[:0]
				}
			}
			continue
		}

		if state == nil {
			for _, sl := range slots {
				addVar(sl.name)
			}
			state = rel.New(len(vars))
			for i := 0; i < rows.Len(); i++ {
				row := rows.Row(i)
				vals := make([]uint64, len(vars))
				for _, sl := range slots {
					vals[varIdx[sl.name]] = row[sl.col]
				}
				state.Data = append(state.Data, vals...)
			}
			continue
		}

		// Split this pattern's variables into join vars (already bound in
		// state) and fresh vars.
		var joins, fresh []slot
		for _, sl := range slots {
			if _, ok := varIdx[sl.name]; ok {
				joins = append(joins, sl)
			} else {
				fresh = append(fresh, sl)
			}
		}
		for _, sl := range fresh {
			addVar(sl.name)
		}
		// Hash the pattern rows on the join-variable values.
		ht := make(map[string][]int, rows.Len())
		keyOf := func(row []uint64) string {
			buf := make([]byte, 0, len(joins)*8)
			for _, sl := range joins {
				v := row[sl.col]
				buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
					byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
			}
			return string(buf)
		}
		for i := 0; i < rows.Len(); i++ {
			ht[keyOf(rows.Row(i))] = append(ht[keyOf(rows.Row(i))], i)
		}
		next := rel.New(len(vars))
		oldW := state.W
		for i := 0; i < state.Len(); i++ {
			srow := state.Row(i)
			buf := make([]byte, 0, len(joins)*8)
			for _, sl := range joins {
				v := srow[varIdx[sl.name]]
				buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
					byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
			}
			for _, ri := range ht[string(buf)] {
				rrow := rows.Row(ri)
				vals := make([]uint64, len(vars))
				copy(vals, srow[:oldW])
				for _, sl := range fresh {
					vals[varIdx[sl.name]] = rrow[sl.col]
				}
				next.Data = append(next.Data, vals...)
			}
		}
		state = next
	}
	if state == nil {
		// Only constant patterns appeared: report satisfiability as a
		// single-column relation with one row iff all patterns matched.
		state = rel.New(1)
		if ok {
			state.Append(1)
		}
	}
	return state, vars
}
